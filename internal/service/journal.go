// The write-ahead job journal: websliced's crash-durability layer. Every
// submitted job is appended to the journal and fsync'd *before* the
// submission is acknowledged, and every terminal state (done, failed,
// canceled, quarantined) is appended and fsync'd *before* it is published
// to clients. On restart the journal is replayed: jobs with a submit
// record but no terminal record — acknowledged work the previous process
// died holding — are re-enqueued, and everything else is compacted away.
// kill -9 at any instant therefore loses no acknowledged job, and a job a
// client ever observed as terminal is never re-executed.
//
// # File format (WSJL version 2)
//
//	header:  "WSJL" | version byte (2)
//	record:  uint32 payload length (LE) | payload | uint32 CRC32-IEEE of payload (LE)
//	payload: one tag byte, then the record
//	  'U' submit   uvarint(len(meta)) | meta | the upload's raw bytes (none for a site job)
//	               meta: {"id": "j5c1e0f3a9b2d4c67-000001", "spec": <Spec's JSON>}
//	  'T' terminal {"id": "j5c1e0f3a9b2d4c67-000001", "status": "done"}
//	  'M' meta     {"max_id": 41}: an older build's largest job number, first
//	               in every journal it compacted. Replay skips the record, so
//	               those journals still replay; nothing writes it, since a job
//	               id carries its boot's random tag (IDs).
//
// Version 1 (before the 'U' record) wrote each submission as an 'S'
// record, its trace in base64 inside the JSON. Replay refuses a version 1
// file with ErrJournalCorrupt rather than dropping the jobs it holds: to
// upgrade a daemon that wrote one, drain it, then remove the file, which
// then holds no pending job. A binary that knows only version 1 refuses a
// version 2 file the same way.
//
// Records are framed independently so a torn tail — the bytes a crash cut
// mid-append — is detected by the length/CRC check and discarded, while
// every record before it is salvaged. Replay never trusts a frame the CRC
// does not vouch for: corruption anywhere truncates the journal at the
// last intact record instead of fabricating or garbling jobs.
package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// journalMagic is the header every journal is written with, and the only
// one replay accepts.
var journalMagic = [5]byte{'W', 'S', 'J', 'L', 2}

const (
	recUpload   = 'U'
	recTerminal = 'T'
	recMeta     = 'M' // written by older builds only

	// journalFrameOverhead is the length prefix plus the CRC suffix.
	journalFrameOverhead = 8

	// maxSubmitMeta is the room a submit record leaves beside its trace
	// for the tag, the id, the spec's other fields and their JSON.
	maxSubmitMeta = 1 << 20

	// maxJournalPayload rejects absurd frame lengths during replay before
	// any allocation. The largest payload is the submit record of a
	// maxTraceBody upload. LogSubmit refuses to write a record longer than
	// this, so replay accepts every frame it wrote.
	maxJournalPayload = maxTraceBody + maxSubmitMeta

	// compactEvery bounds journal growth: after this many terminal records
	// the file is rewritten to hold only still-pending submissions.
	compactEvery = 1024
)

// ErrJournalCorrupt reports a journal whose header is not a WSJL file at
// all. (Mid-file corruption is not an error: replay salvages the intact
// prefix and compaction discards the rest.)
var ErrJournalCorrupt = errors.New("service: corrupt journal")

// JournalEntry is one replayed, still-pending job.
type JournalEntry struct {
	ID   string
	Spec Spec
}

// submitRecord is the JSON of a 'U' record. Spec's JSON leaves out the
// upload, which the record carries raw after the JSON.
type submitRecord struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
}

type terminalRecord struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
}

// pendingSubmit is a pending job's submit record, kept for compaction: its
// payload is head followed by trace. A record LogSubmit wrote shares trace
// with the job's Spec rather than copying it, so the journal frees the
// upload when the job's terminal record drops it.
type pendingSubmit struct {
	head  []byte
	trace []byte
}

// Journal is the append-only WAL. All methods are safe for concurrent use.
type Journal struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	disabled bool // Kill() flips this: simulated power loss, no more writes

	pending   map[string]pendingSubmit // id -> submit record (for compaction)
	order     []string                 // submission order of pending ids
	terminals int                      // terminal records since last compaction
	salvaged  int                      // records dropped by the last replay (corrupt tail)
}

// OpenJournal replays the journal at path (creating it if absent), returns
// the still-pending jobs in submission order, compacts the file down to
// exactly those jobs, and leaves it open for appending. A file that is not
// a WSJL journal at all fails with ErrJournalCorrupt rather than being
// overwritten; a journal with a corrupt or torn tail is salvaged up to the
// last intact record.
func OpenJournal(path string) (*Journal, []JournalEntry, error) {
	j := &Journal{path: path, pending: make(map[string]pendingSubmit)}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("service: reading journal: %w", err)
	}
	if len(data) > 0 {
		if err := j.replay(data); err != nil {
			return nil, nil, err
		}
	}
	entries := make([]JournalEntry, 0, len(j.order))
	for _, id := range j.order {
		spec, err := j.pending[id].spec()
		if err == nil {
			// Re-encode the record over the entry's own bytes, so the
			// file's buffer is not kept alive.
			j.pending[id], err = submitPayload(id, spec)
		}
		if err != nil {
			// Impossible for frames replay accepted; fail loudly if not.
			return nil, nil, fmt.Errorf("service: journal entry %s: %w", id, err)
		}
		entries = append(entries, JournalEntry{ID: id, Spec: spec})
	}
	// Compact on open: the rewritten file holds only the pending records,
	// so completed history never accumulates across restarts.
	if err := j.compactLocked(); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: opening journal: %w", err)
	}
	j.f = f
	return j, entries, nil
}

// replay parses data, populating pending and order. Any framing, CRC, or
// payload violation truncates the replay at the last intact record — the
// corrupt or torn remainder is counted in salvaged and never trusted.
func (j *Journal) replay(data []byte) error {
	if len(data) < len(journalMagic) || [4]byte(data[:4]) != [4]byte(journalMagic[:4]) {
		return fmt.Errorf("%w: bad header", ErrJournalCorrupt)
	}
	if v := data[4]; v != journalMagic[4] {
		return fmt.Errorf("%w: unsupported version %d", ErrJournalCorrupt, v)
	}
	pos := len(journalMagic)
	for pos < len(data) {
		payload, next, ok := readFrame(data, pos)
		if !ok || !j.apply(payload) {
			j.salvaged = len(data) - pos
			return nil
		}
		pos = next
	}
	return nil
}

// apply replays one record payload; false means the payload is garbage
// (which, given the CRC passed, indicates corruption the frame layer
// cannot see — replay stops there).
func (j *Journal) apply(payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	switch payload[0] {
	case recUpload:
		n, k := binary.Uvarint(payload[1:])
		if k <= 0 || n > uint64(len(payload)-1-k) {
			return false
		}
		end := 1 + k + int(n)
		p := pendingSubmit{head: payload[:end], trace: payload[end:]}
		var rec submitRecord
		if err := json.Unmarshal(p.meta(), &rec); err != nil || rec.ID == "" {
			return false
		}
		if _, dup := j.pending[rec.ID]; !dup {
			j.pending[rec.ID] = p
			j.order = append(j.order, rec.ID)
		}
	case recTerminal:
		var rec terminalRecord
		if err := json.Unmarshal(payload[1:], &rec); err != nil || rec.ID == "" {
			return false
		}
		j.dropPending(rec.ID)
	case recMeta: // skipped: see the file format
	default:
		return false
	}
	return true
}

// readFrame decodes one length/payload/CRC frame at pos. ok is false when
// the frame is truncated, oversized, or fails its checksum.
func readFrame(data []byte, pos int) (payload []byte, next int, ok bool) {
	if pos+journalFrameOverhead > len(data) {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[pos:]))
	if n < 0 || n > maxJournalPayload || pos+4+n+4 > len(data) {
		return nil, 0, false
	}
	payload = data[pos+4 : pos+4+n]
	want := binary.LittleEndian.Uint32(data[pos+4+n:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, 0, false
	}
	return payload, pos + 4 + n + 4, true
}

// writeFrame writes one frame whose payload is head followed by body,
// without copying body.
func writeFrame(w io.Writer, head, body []byte) error {
	crc := crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, body)
	buf := make([]byte, 0, len(head)+journalFrameOverhead)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(head)+len(body)))
	buf = append(buf, head...)
	if len(body) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if _, err := w.Write(body); err != nil {
			return err
		}
		buf = buf[:0]
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(buf, crc))
	return err
}

// meta returns the record's JSON, after the tag and its length.
func (p pendingSubmit) meta() []byte {
	_, k := binary.Uvarint(p.head[1:])
	return p.head[1+k:]
}

// spec decodes the record back into its job's Spec. The trace is a copy of
// the record's bytes, never a view of the journal file.
func (p pendingSubmit) spec() (Spec, error) {
	var rec submitRecord
	if err := json.Unmarshal(p.meta(), &rec); err != nil {
		return Spec{}, err
	}
	if len(p.trace) > 0 {
		rec.Spec.Trace = bytes.Clone(p.trace)
	}
	return rec.Spec, nil
}

// submitPayload builds the 'U' record of a submission. The record shares
// spec.Trace rather than copying it. A record longer than replay accepts
// is refused, so an acknowledged job is never one replay would drop.
func submitPayload(id string, spec Spec) (pendingSubmit, error) {
	meta, err := json.Marshal(submitRecord{ID: id, Spec: spec})
	if err != nil {
		return pendingSubmit{}, err
	}
	head := make([]byte, 0, 1+binary.MaxVarintLen64+len(meta))
	head = append(head, recUpload)
	head = binary.AppendUvarint(head, uint64(len(meta)))
	head = append(head, meta...)
	if n := len(head) + len(spec.Trace); n > maxJournalPayload {
		return pendingSubmit{}, fmt.Errorf("submit record of %d bytes exceeds the journal's %d-byte bound", n, maxJournalPayload)
	}
	return pendingSubmit{head: head, trace: spec.Trace}, nil
}

func (j *Journal) dropPending(id string) {
	if _, ok := j.pending[id]; !ok {
		return
	}
	delete(j.pending, id)
	for i, pid := range j.order {
		if pid == id {
			j.order = append(j.order[:i], j.order[i+1:]...)
			break
		}
	}
}

// LogSubmit appends a submit record and fsyncs. It must succeed before the
// submission is acknowledged — that ordering is the durability contract.
func (j *Journal) LogSubmit(id string, spec Spec) error {
	rec, err := submitPayload(id, spec)
	if err != nil {
		return fmt.Errorf("service: journaling submit: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(rec.head, rec.trace); err != nil {
		return err
	}
	if _, dup := j.pending[id]; !dup {
		j.pending[id] = rec
		j.order = append(j.order, id)
	}
	return nil
}

// LogTerminal appends a terminal record and fsyncs. The manager calls it
// *before* publishing the terminal status, so any status a client observes
// is durable: replay will not resurrect the job.
func (j *Journal) LogTerminal(id string, status Status) error {
	payload, err := json.Marshal(terminalRecord{ID: id, Status: status})
	if err != nil {
		return fmt.Errorf("service: journaling terminal: %w", err)
	}
	payload = append([]byte{recTerminal}, payload...)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(payload, nil); err != nil {
		return err
	}
	j.dropPending(id)
	j.terminals++
	if j.terminals >= compactEvery {
		return j.compactLocked()
	}
	return nil
}

// appendLocked appends and fsyncs one frame whose payload is head
// followed by body.
func (j *Journal) appendLocked(head, body []byte) error {
	if j.disabled || j.f == nil {
		return nil
	}
	if err := writeFrame(j.f, head, body); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("service: journal fsync: %w", err)
	}
	return nil
}

// compactLocked rewrites the journal to the pending submits, atomically
// (temp file + rename + fsync).
func (j *Journal) compactLocked() error {
	tmp, err := os.CreateTemp(filepath.Dir(j.path), ".journal-*")
	if err != nil {
		return fmt.Errorf("service: journal compact: %w", err)
	}
	w := bufio.NewWriter(tmp)
	_, werr := w.Write(journalMagic[:])
	for _, id := range j.order {
		if werr == nil {
			p := j.pending[id]
			werr = writeFrame(w, p.head, p.trace)
		}
	}
	if werr == nil {
		werr = w.Flush()
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), j.path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: journal compact: %w", werr)
	}
	j.terminals = 0
	// Re-point the append handle at the fresh file if one was open.
	if j.f != nil {
		j.f.Close()
		f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("service: reopening compacted journal: %w", err)
		}
		j.f = f
	}
	return nil
}

// Salvaged reports how many bytes the last replay discarded as a corrupt
// or torn tail (0 for a clean journal).
func (j *Journal) Salvaged() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.salvaged
}

// disable stops all further writes without flushing anything — the crash
// harness's simulated power loss. The file handle is left dangling exactly
// as a killed process would leave it.
func (j *Journal) disable() {
	j.mu.Lock()
	j.disabled = true
	j.mu.Unlock()
}

// Close compacts and closes the journal. A disabled (killed) journal is
// left untouched, like the real file of a dead process.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.disabled || j.f == nil {
		return nil
	}
	if err := j.compactLocked(); err != nil {
		j.f.Close()
		j.f = nil
		return err
	}
	err := j.f.Close()
	j.f = nil
	return err
}
