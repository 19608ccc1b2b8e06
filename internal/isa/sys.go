package isa

import "fmt"

// Sys identifies a system call. The numbering follows the Linux x86-64 ABI
// for the calls the paper's Chromium workload actually issued, so traces read
// like the ones the original Pin tool produced.
type Sys uint32

const (
	SysRead         Sys = 0
	SysWrite        Sys = 1
	SysMmap         Sys = 9
	SysIoctl        Sys = 16
	SysWritev       Sys = 20
	SysMadvise      Sys = 28
	SysSendto       Sys = 44
	SysRecvfrom     Sys = 45
	SysSendmsg      Sys = 46
	SysRecvmsg      Sys = 47
	SysFutex        Sys = 202
	SysClockGettime Sys = 228
	SysEpollWait    Sys = 232
)

// SysSpec describes the user-visible semantics of one system call: what it
// is called, whether it moves data into or out of the process, and how many
// argument registers the kernel reads. The exact memory ranges a particular
// dynamic call reads or writes are runtime facts and therefore live in the
// trace's syscall side table; the spec is the static contract, the analog of
// the paper's reading of the Linux kernel manual (e.g. that sendto reads the
// memory pointed to by buf and dest_addr).
type SysSpec struct {
	Num  Sys
	Name string
	// Output reports whether the call transmits process data to the outside
	// world (network, display, disk). Output syscalls anchor the
	// syscall-based slicing criteria.
	Output bool
	// Input reports whether the call writes external data into process
	// memory (it acts as a definition site during liveness analysis).
	Input bool
	// ArgRegs is how many argument registers the kernel reads (per the
	// x86-64 ABI, up to six; the virtual ISA encodes at most two explicit
	// argument registers per record, extra arguments travel through memory).
	ArgRegs int
}

var sysSpecs = map[Sys]SysSpec{
	SysRead:         {SysRead, "read", false, true, 3},
	SysWrite:        {SysWrite, "write", true, false, 3},
	SysMmap:         {SysMmap, "mmap", false, false, 6},
	SysIoctl:        {SysIoctl, "ioctl", true, false, 3},
	SysWritev:       {SysWritev, "writev", true, false, 3},
	SysMadvise:      {SysMadvise, "madvise", false, false, 3},
	SysSendto:       {SysSendto, "sendto", true, false, 6},
	SysRecvfrom:     {SysRecvfrom, "recvfrom", false, true, 6},
	SysSendmsg:      {SysSendmsg, "sendmsg", true, false, 3},
	SysRecvmsg:      {SysRecvmsg, "recvmsg", false, true, 3},
	SysFutex:        {SysFutex, "futex", false, false, 6},
	SysClockGettime: {SysClockGettime, "clock_gettime", false, true, 2},
	SysEpollWait:    {SysEpollWait, "epoll_wait", false, true, 4},
}

// Spec returns the static contract for a syscall number. The second result
// is false for numbers this ISA does not model.
func Spec(n Sys) (SysSpec, bool) {
	s, ok := sysSpecs[n]
	return s, ok
}

func (s Sys) String() string {
	if sp, ok := sysSpecs[s]; ok {
		return sp.Name
	}
	return fmt.Sprintf("sys(%d)", uint32(s))
}
