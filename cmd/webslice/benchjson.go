// Machine-readable repro output: `webslice repro -json` mirrors the printed
// tables into BENCH_repro.json — one row set per experiment plus wall-clock
// timings and instruction counts — so the performance trajectory of the
// reproduction is tracked commit over commit.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// BenchFile is the default output path, relative to the working directory.
const BenchFile = "BENCH_repro.json"

// BenchDoc is the top-level BENCH_repro.json document. Workers is the -j
// value the run was invoked with (0 = GOMAXPROCS) and GoMaxProcs the
// resolved parallelism, so recorded wall times can be compared across
// machines and pool sizes.
//
// Schema 2 added the "backward" experiment (sequential vs segmented
// backward-pass wall time) and the backward pass's phase timings and
// segment count on the render+slice rows.
//
// Schema 3 added a "compression" experiment comparing the flat v2 trace
// encoding with v3. Schema 4 removed it along with the v2 encoding; v3 is
// the only trace format. Schema 5 removed the "backward" experiment and the
// phase fields along with the segmented backward pass; the backward pass is
// one sequential walk, timed as slice_wall_ms.
type BenchDoc struct {
	Schema      int               `json:"schema"`
	Scale       float64           `json:"scale"`
	Workers     int               `json:"workers"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	Experiments []BenchExperiment `json:"experiments"`
	TotalWallMs int64             `json:"total_wall_ms"`
}

// BenchExperiment is one experiment's rows and wall time.
type BenchExperiment struct {
	Name   string     `json:"name"`
	WallMs int64      `json:"wall_ms"`
	Rows   []BenchRow `json:"rows,omitempty"`
}

// BenchRow is one named row of numeric values (encoding/json sorts the map
// keys, so the file is deterministic up to timings).
type BenchRow struct {
	Name   string             `json:"name"`
	Values map[string]float64 `json:"values,omitempty"`
}

// benchRecorder accumulates experiments as repro runs. A nil recorder is
// valid and records nothing, so the repro path can call it unconditionally.
type benchRecorder struct {
	doc      BenchDoc
	cur      *BenchExperiment
	start    time.Time
	curStart time.Time
}

func newBenchRecorder(scale float64, workers int) *benchRecorder {
	return &benchRecorder{
		doc:   BenchDoc{Schema: 5, Scale: scale, Workers: workers, GoMaxProcs: runtime.GOMAXPROCS(0)},
		start: time.Now(),
	}
}

// begin closes the current experiment (if any) and starts a new one.
func (r *benchRecorder) begin(name string) {
	if r == nil {
		return
	}
	r.flush()
	r.cur = &BenchExperiment{Name: name}
	r.curStart = time.Now()
}

// row appends a row to the current experiment.
func (r *benchRecorder) row(name string, values map[string]float64) {
	if r == nil || r.cur == nil {
		return
	}
	r.cur.Rows = append(r.cur.Rows, BenchRow{Name: name, Values: values})
}

func (r *benchRecorder) flush() {
	if r.cur != nil {
		r.cur.WallMs = time.Since(r.curStart).Milliseconds()
		r.doc.Experiments = append(r.doc.Experiments, *r.cur)
		r.cur = nil
	}
}

// write finalizes the document and writes it to path.
func (r *benchRecorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.flush()
	r.doc.TotalWallMs = time.Since(r.start).Milliseconds()
	b, err := json.MarshalIndent(r.doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("bench rows written to %s (%d experiments, %d ms total)\n",
		path, len(r.doc.Experiments), r.doc.TotalWallMs)
	return nil
}
