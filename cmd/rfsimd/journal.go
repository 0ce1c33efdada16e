package main

// The durable job journal: an append-only, fsync'd NDJSON write-ahead
// log that makes accepted sweeps survive a daemon crash. Every job that
// passes admission appends an "accept" record carrying its raw
// SweepRequest before any simulation starts; every job that reaches a
// terminal state appends a "done" record. A job interrupted by a server
// drain (or a SIGKILL) writes no "done" — deliberately — so a restarted
// daemon finds the accept unpaired and replays it against the
// checkpoint directory and result cache, finishing the work the crash
// abandoned.
//
// Record shapes (one JSON object per line):
//
//	{"t":"accept","job":7,"spec":{...raw SweepRequest...}}
//	{"t":"done","job":7,"failed":true}
//
// Recovery rules, applied when the file is opened:
//
//   - an accept with no matching done is an open job: returned for
//     replay, in acceptance order;
//   - a torn final line (the crash landed mid-append: no trailing
//     newline, or unparseable JSON) is skipped and counted, never
//     fatal — losing the record the crash interrupted is the crash-only
//     contract, losing the whole journal is not;
//   - any other unparseable line (bit rot, manual edits) is likewise
//     skipped and counted;
//   - settled accept/done pairs and skipped garbage are compacted away
//     at open by rewriting the file with only the open accepts.
//
// Compaction also runs during service via the janitor's sweep hook once
// enough settled records accumulate, so the journal's disk footprint is
// bounded by the open-job count, not by service uptime. The journal
// file must NOT match the janitor's artifact filter (*.ckpt,
// *.crash.json) or the janitor would garbage-collect the very log that
// guarantees durability; the conventional name is "journal.wal".

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// defaultJournalCompactAt is the settled-record debt that triggers an
// in-service compaction.
const defaultJournalCompactAt = 256

// openJournaled is one accepted-but-unfinished job's journaled state.
type openJournaled struct {
	key  string
	spec json.RawMessage
}

// journalRecord is one WAL line. Key (PR 9) is the job's stable result
// identity — the ID of its durable result log — so a boot replay
// continues appending to the same log the crashed run started, and a
// client's cursor survives the restart. Records written before the
// field existed decode with Key "" and the replay derives the content
// identity from the spec instead.
type journalRecord struct {
	T      string          `json:"t"`   // "accept" or "done"
	Job    int64           `json:"job"` // acceptance sequence number
	Key    string          `json:"key,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	Failed bool            `json:"failed,omitempty"`
}

// replayJob is one accepted-but-unfinished job recovered at open.
type replayJob struct {
	ID   int64
	Key  string // result-log job ID ("" on pre-PR-9 records)
	Spec json.RawMessage
}

// journalStats is the /v1/metrics view of one journal.
type journalStats struct {
	Accepted    int64 `json:"accepted"`  // accepts appended this process
	Completed   int64 `json:"completed"` // dones appended this process
	OpenJobs    int   `json:"open_jobs"`
	TornSkipped int64 `json:"torn_skipped"` // corrupt/torn lines skipped at open
	Compactions int64 `json:"compactions"`
}

// journal is the WAL handle. All methods are safe for concurrent use;
// appends are serialized and fsync'd one record at a time, so the
// strongest thing a crash can tear is the single record being written.
type journal struct {
	mu        sync.Mutex
	path      string
	f         *os.File
	seq       int64                   // highest sequence number ever issued
	open      map[int64]openJournaled // accepted, not yet done
	settled   int                     // records a compaction could fold away
	compactAt int
	stats     journalStats
}

// openJournal opens (or creates) the WAL at path, scans it under the
// recovery rules, compacts away any settled or torn debt, and returns
// the handle plus the open jobs to replay, oldest first.
func openJournal(path string, compactAt int) (*journal, []replayJob, error) {
	if compactAt <= 0 {
		compactAt = defaultJournalCompactAt
	}
	j := &journal{
		path:      path,
		open:      map[int64]openJournaled{},
		compactAt: compactAt,
	}

	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j.scan(data)

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f

	// Fold boot-time debt away immediately: settled pairs, torn lines,
	// and — critically — a torn tail that a plain append would otherwise
	// fuse with the next record, corrupting it too.
	if j.settled > 0 || j.stats.TornSkipped > 0 {
		if err := j.compactLocked(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}

	jobs := make([]replayJob, 0, len(j.open))
	for id, rec := range j.open {
		jobs = append(jobs, replayJob{ID: id, Key: rec.key, Spec: rec.spec})
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	return j, jobs, nil
}

// scan replays the raw file contents into open/seq/settled/torn state.
func (j *journal) scan(data []byte) {
	for len(data) > 0 {
		nl := -1
		for i, b := range data {
			if b == '\n' {
				nl = i
				break
			}
		}
		var line []byte
		torn := false
		if nl < 0 {
			// No trailing newline: the final append was interrupted.
			line, data, torn = data, nil, true
		} else {
			line, data = data[:nl], data[nl+1:]
		}
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || (rec.T != "accept" && rec.T != "done") {
			j.stats.TornSkipped++
			continue
		}
		if torn {
			// Parsed, but the record never got its newline: the fsync
			// cannot have completed before the crash, so the writer never
			// acted on it. Drop it like any other torn line.
			j.stats.TornSkipped++
			continue
		}
		if rec.Job > j.seq {
			j.seq = rec.Job
		}
		switch rec.T {
		case "accept":
			j.open[rec.Job] = openJournaled{key: rec.Key, spec: rec.Spec}
		case "done":
			if _, ok := j.open[rec.Job]; ok {
				delete(j.open, rec.Job)
				j.settled += 2 // the pair folds away
			} else {
				j.settled++ // orphan done (its accept was torn away)
			}
		}
	}
}

// Accept journals one admitted job and returns its sequence number. key
// is the job's result-log identity, carried so a boot replay reattaches
// to the same log. The record is on disk (fsync'd) before Accept
// returns; an error means the job has no durability and must be
// refused.
func (j *journal) Accept(key string, spec json.RawMessage) (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	id := j.seq
	if err := j.appendLocked(journalRecord{T: "accept", Job: id, Key: key, Spec: spec}); err != nil {
		return 0, err
	}
	j.open[id] = openJournaled{key: key, spec: spec}
	j.stats.Accepted++
	return id, nil
}

// Done journals a job's terminal state. Idempotent: settling a job that
// is not open (already settled, or never accepted) is a no-op.
func (j *journal) Done(id int64, failed bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.open[id]; !ok {
		return nil
	}
	if err := j.appendLocked(journalRecord{T: "done", Job: id, Failed: failed}); err != nil {
		return err
	}
	delete(j.open, id)
	j.settled += 2
	j.stats.Completed++
	return nil
}

// appendLocked writes one record and fsyncs. Callers hold j.mu.
func (j *journal) appendLocked(rec journalRecord) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := j.f.Write(append(blob, '\n')); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// CompactIfNeeded folds the journal when enough settled records have
// accumulated; it reports whether a compaction ran. The janitor calls
// it at the end of every sweep.
func (j *journal) CompactIfNeeded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.settled < j.compactAt {
		return false
	}
	return j.compactLocked() == nil
}

// compactLocked rewrites the file with only the open accepts, via a
// fsync'd temp file renamed into place — the same crash-safe dance the
// checkpoint writer uses. Callers hold j.mu (or own j exclusively).
func (j *journal) compactLocked() error {
	ids := make([]int64, 0, len(j.open))
	for id := range j.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })

	tmp, err := os.CreateTemp(filepath.Dir(j.path), filepath.Base(j.path)+".compact-*")
	if err != nil {
		return fmt.Errorf("journal compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	for _, id := range ids {
		rec := j.open[id]
		blob, err := json.Marshal(journalRecord{T: "accept", Job: id, Key: rec.key, Spec: rec.spec})
		if err != nil {
			tmp.Close()
			return fmt.Errorf("journal compact: %w", err)
		}
		if _, err := tmp.Write(append(blob, '\n')); err != nil {
			tmp.Close()
			return fmt.Errorf("journal compact: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("journal compact: %w", err)
	}
	// The old handle points at the unlinked inode; swap in a fresh one.
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal compact: %w", err)
	}
	if j.f != nil {
		j.f.Close()
	}
	j.f = f
	j.settled = 0
	j.stats.Compactions++
	return nil
}

// OpenJobs reports the accepted-but-unfinished job count.
func (j *journal) OpenJobs() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.open)
}

// Stats snapshots the journal counters.
func (j *journal) Stats() journalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.stats
	s.OpenJobs = len(j.open)
	return s
}

// Close releases the file handle. Open jobs stay journaled — that is
// the point.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
