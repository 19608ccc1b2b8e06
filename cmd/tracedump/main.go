// Command tracedump inspects binary traces written by `webslice trace -o`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"webslice/internal/isa"
	"webslice/internal/trace"
)

func main() {
	n := flag.Int("n", 40, "how many records to print")
	offset := flag.Int("off", 0, "first record to print")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracedump [-n N] [-off K] trace.wslt")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(1)
	}
	br, err := trace.OpenV3(data)
	var t *trace.Trace
	if err == nil {
		t, err = br.ReadAll()
	}
	if err != nil {
		var de *trace.DecodeError
		if errors.As(err, &de) {
			fmt.Fprintf(os.Stderr, "tracedump: %s is not a valid trace: decoding the %s failed at byte offset %d: %s\n",
				flag.Arg(0), de.Section, de.Offset, de.Msg)
		} else {
			fmt.Fprintln(os.Stderr, "tracedump:", err)
		}
		os.Exit(1)
	}
	if err := t.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "tracedump: invalid trace:", err)
		os.Exit(1)
	}
	s := t.Summarize()
	fmt.Printf("format v%d, %d records, %d functions, %d threads, %d syscalls, %d markers\n",
		trace.FormatVersion(data), s.Total, s.Functions, s.Threads, s.Syscalls, s.Markers)
	for k, c := range s.ByKind {
		fmt.Printf("  %-8s %d\n", k, c)
	}
	end := *offset + *n
	if end > len(t.Recs) {
		end = len(t.Recs)
	}
	for i := *offset; i < end; i++ {
		r := &t.Recs[i]
		fmt.Printf("%8d t%d %-8s pc=%08x dst=r%-6d src=r%-6d,r%-6d addr=%08x+%-3d aux=%-6d %s\n",
			i, r.TID, r.Kind, r.PC, r.Dst, r.Src1, r.Src2, uint32(r.Addr), r.Size, r.Aux,
			t.FuncName(r.Func()))
		if r.Kind == isa.KindSyscall {
			if eff := t.Sys[i]; eff != nil {
				fmt.Printf("           syscall %s reads=%v writes=%v\n", eff.Num, eff.Reads, eff.Writes)
			}
		}
		if mk := t.Marks[i]; mk != nil {
			fmt.Printf("           marker %s buf=%v\n", mk.Kind, mk.Buf)
		}
	}
}
