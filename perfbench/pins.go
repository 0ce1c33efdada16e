package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/experiments"
	"repro/internal/topology"
)

// updatePins recomputes every stored digest: Fig8 and its traced replay
// for each fig8 seed, and every svc-hit universe point and svc-mix pool
// point through a freshly booted daemon. It refuses to write pins from
// a run that fails any check.
func updatePins(ctx context.Context, path, rfsimd, out string) error {
	p := &pins{Fig8: map[string]fig8Pin{}, Universe: map[string]string{}, Pool: make([]string, poolSize)}
	experiments.Workers = fig8Workers
	m := topology.New10x10()
	for _, seed := range fig8Seeds {
		r := experiments.Fig8(m, fig8Options(seed))
		rp := replayFig8(m, fig8Options(seed), newTracer(), "pin")
		bad := append(checkFig8Orderings(r), compareReplay(r, rp)...)
		if rp.undrained > 0 {
			bad = append(bad, fmt.Sprintf("%d points did not drain", rp.undrained))
		}
		if len(bad) > 0 {
			return fmt.Errorf("fig8 seed %d: %s", seed, strings.Join(bad, "; "))
		}
		p.Fig8[strconv.FormatInt(seed, 10)] = fig8Pin{Norm: normDigest(r), Stats: combineDigests(rp.digests), Cycles: rp.cycles}
		fmt.Fprintf(os.Stderr, "fig8 seed %d pinned\n", seed)
	}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	stateRoot, err := os.MkdirTemp(out, "pins-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateRoot)
	d, err := startDaemon(ctx, rfsimd, stateRoot+"/state")
	if err != nil {
		return err
	}
	s := newSvc(d, func(string) string { return "" })
	defer s.close()
	if bad := fillUniverse(ctx, s, universe()); len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	for _, pt := range universe() {
		p.Universe[pt.key] = s.digests[pt.key]
	}

	const chunk = 64
	var mu sync.Mutex
	var bad []string
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < svcClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := range next {
				pts := make([]svcPoint, 0, chunk)
				for i := lo; i < min(lo+chunk, poolSize); i++ {
					pts = append(pts, poolPoint(i))
				}
				rec := s.sweep(ctx, pts, false, fmt.Sprintf("pool%d", lo))
				mu.Lock()
				bad = append(bad, rec.bad...)
				mu.Unlock()
			}
		}()
	}
	for lo := 0; lo < poolSize; lo += chunk {
		next <- lo
	}
	close(next)
	wg.Wait()
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	for i := range p.Pool {
		p.Pool[i] = s.digests[poolPoint(i).key]
	}
	return writePins(path, p)
}
