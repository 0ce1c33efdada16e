package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// getJob fetches GET /v1/jobs/{id}/results?from=1.
func getJob(t *testing.T, client *http.Client, url, id string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(fmt.Sprintf("%s/v1/jobs/%s/results?from=1", url, id))
	if err != nil {
		t.Errorf("GET job %s: %v", id, err)
		return 0, nil
	}
	blob, err := readAll(t, resp)
	if err != nil {
		t.Errorf("read job %s: %v", id, err)
	}
	return resp.StatusCode, blob
}

// postKeyed posts req under an Idempotency-Key.
func postKeyed(t *testing.T, client *http.Client, url, key string, req SweepRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Idempotency-Key", key)
	resp, err := client.Do(hreq)
	if err != nil {
		t.Errorf("keyed POST: %v", err)
		return 0, nil
	}
	blob, err := readAll(t, resp)
	if err != nil {
		t.Errorf("read keyed POST: %v", err)
	}
	return resp.StatusCode, blob
}

// streamJobID reads the job ID from a stream's first line.
func streamJobID(t *testing.T, body []byte) string {
	t.Helper()
	var jl jobLine
	first, _, _ := bytes.Cut(body, []byte("\n"))
	if err := json.Unmarshal(first, &jl); err != nil || jl.Type != "job" {
		t.Fatalf("stream does not open with a job line: %q", first)
	}
	return jl.ID
}

// assertReleased checks that a sealed, unattached job holds no frames
// and no open log handle, but keeps what the attach path reads.
func assertReleased(t *testing.T, srv *server, id string) {
	t.Helper()
	srv.jobs.mu.Lock()
	e := srv.jobs.entries[id]
	srv.jobs.mu.Unlock()
	if e == nil {
		t.Fatalf("job %s left the registry", id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.released || e.lines != nil || e.seen != nil || e.durable != 0 || e.log != nil {
		t.Errorf("sealed job %s still holds state: released=%v frames=%d seen=%d durable=%d log open=%v",
			id, e.released, len(e.lines), len(e.seen), e.durable, e.log != nil)
	}
	if !e.done || e.header.Job != id {
		t.Errorf("released job %s lost its identity: done=%v header=%+v", id, e.done, e.header)
	}
}

// TestSealedJobReleasesFrames: once a disk-backed job is sealed and
// nothing is attached, its frames and log handle leave memory; a cursor
// GET and a keyed re-POST reload them from the log byte-identical.
func TestSealedJobReleasesFrames(t *testing.T) {
	srv, ts := e2eServer(t, serverConfig{dir: t.TempDir()})
	req := SweepRequest{Points: []PointSpec{
		{Workload: "uniform", Cycles: 300, Seed: 7},
		{Design: "static", Workload: "bidf", Cycles: 300, Seed: 8},
	}}

	resp, body := postSweep(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d: %s", resp.StatusCode, body)
	}
	id := streamJobID(t, body)
	assertReleased(t, srv, id)
	code, got := getJob(t, ts.Client(), ts.URL, id)
	if code != http.StatusOK || !bytes.Equal(got, body) {
		t.Fatalf("GET after release: status %d\n got: %s\nwant: %s", code, got, body)
	}
	assertReleased(t, srv, id)

	code, keyed := postKeyed(t, ts.Client(), ts.URL, "sealed-key", req)
	if code != http.StatusOK {
		t.Fatalf("keyed POST status %d: %s", code, keyed)
	}
	kid := streamJobID(t, keyed)
	assertReleased(t, srv, kid)
	code, again := postKeyed(t, ts.Client(), ts.URL, "sealed-key", req)
	if code != http.StatusOK || !bytes.Equal(again, keyed) {
		t.Fatalf("keyed re-POST after release: status %d\n got: %s\nwant: %s", code, again, keyed)
	}
	if code, got := getJob(t, ts.Client(), ts.URL, kid); code != http.StatusOK || !bytes.Equal(got, keyed) {
		t.Fatalf("GET of keyed job after release: status %d\n got: %s\nwant: %s", code, got, keyed)
	}
	assertReleased(t, srv, kid)

	// An unkeyed repeat re-runs through the cache and reopens the log;
	// its end releases the job again.
	if resp, body := postSweep(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat POST status %d: %s", resp.StatusCode, body)
	}
	assertReleased(t, srv, id)
}

// TestSealedJobReleaseRacesReaders: GETs fired while a keyed job's
// producer finishes (and releases the job) either miss the job (404,
// before it exists) or stream a prefix of the producer's own bytes; a
// stream that reaches the summary is byte-identical to it. Meant for
// -race.
func TestSealedJobReleaseRacesReaders(t *testing.T) {
	srv, ts := e2eServer(t, serverConfig{dir: t.TempDir()})
	req := SweepRequest{Points: []PointSpec{{Workload: "uniform", Cycles: 300, Seed: 11}}}
	if resp, body := postSweep(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up POST status %d: %s", resp.StatusCode, body)
	}
	for round := 0; round < 8; round++ {
		key := fmt.Sprintf("race-%d", round)
		id := jobIDFromKey(key)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var mu sync.Mutex
		var streams [][]byte
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for tail := 0; tail < 3; {
					select {
					case <-stop:
						tail++
					default:
					}
					code, blob := getJob(t, ts.Client(), ts.URL, id)
					switch code {
					case http.StatusOK:
						mu.Lock()
						streams = append(streams, blob)
						mu.Unlock()
					case http.StatusNotFound:
					default:
						t.Errorf("GET status %d: %s", code, blob)
						return
					}
				}
			}()
		}
		code, body := postKeyed(t, ts.Client(), ts.URL, key, req)
		close(stop)
		wg.Wait()
		if code != http.StatusOK {
			t.Fatalf("keyed POST status %d: %s", code, body)
		}
		sealed := 0
		for _, s := range streams {
			if strings.Contains(string(s), `"type":"summary"`) {
				sealed++
				if !bytes.Equal(s, body) {
					t.Fatalf("round %d: sealed GET stream differs from the producer's\n got: %s\nwant: %s", round, s, body)
				}
				continue
			}
			head, last, _ := bytes.Cut(bytes.TrimSuffix(s, []byte("\n")), []byte(`{"type":"idle"}`))
			if len(last) != 0 || !bytes.HasPrefix(body, head) {
				t.Errorf("round %d: unsealed GET stream is not a producer prefix plus an idle line: %s", round, s)
			}
		}
		if sealed == 0 {
			t.Errorf("round %d: no GET saw the sealed job", round)
		}
		assertReleased(t, srv, id)
	}
}
