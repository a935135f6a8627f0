package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// value returns a fn computing v, counting its calls in n.
func value(n *atomic.Int32, v string) func() (string, error) {
	return func() (string, error) {
		n.Add(1)
		return v, nil
	}
}

// mustNotRun fails the test if the Group computes instead of answering
// from what it holds.
func mustNotRun(t *testing.T) func() (string, error) {
	return func() (string, error) {
		t.Error("computed a value the Group should have kept")
		return "", nil
	}
}

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestZeroValue: a zero Group needs no constructor and keeps every
// success.
func TestZeroValue(t *testing.T) {
	var g Group[int]
	if st := g.Stats(); st != (Stats{}) {
		t.Errorf("fresh stats %+v", st)
	}
	if len(g.Kept()) != 0 {
		t.Error("fresh Group keeps values")
	}
	v, err := g.Do(context.Background(), "k", nil, func() (int, error) { return 7, nil })
	if v != 7 || err != nil {
		t.Fatalf("Do = %d/%v", v, err)
	}
	if g.Kept()["k"] != 7 {
		t.Errorf("kept %v, want k=7", g.Kept())
	}
}

// TestMaxZeroKeepsAll: a Group has no maximum: it keeps every success
// and answers each again without computing.
func TestMaxZeroKeepsAll(t *testing.T) {
	var g Group[int]
	const n = 1000
	for i := 0; i < n; i++ {
		g.Do(context.Background(), fmt.Sprint(i), nil, func() (int, error) { return i, nil })
	}
	if st := g.Stats(); st.Kept != n || st.Hits != 0 {
		t.Errorf("stats %+v, want %d kept and no hits", st, n)
	}
	for i, k := 0, g.Kept(); i < n; i++ {
		if v, ok := k[fmt.Sprint(i)]; !ok || v != i {
			t.Fatalf("key %d: kept %v/%v", i, v, ok)
		}
	}
	if v, err := g.Do(context.Background(), "0", nil, func() (int, error) {
		t.Error("recomputed a kept value")
		return 0, nil
	}); v != 0 || err != nil {
		t.Errorf("first key = %d/%v after %d more, want its kept value", v, err, n-1)
	}
	if st := g.Stats(); st.Kept != n || st.Hits != 1 {
		t.Errorf("stats %+v, want %d kept and 1 hit", st, n)
	}
}

// TestFailuresNotKept: an error — cancellation or not — is returned
// and forgotten, so the next caller computes again.
func TestFailuresNotKept(t *testing.T) {
	var g Group[string]
	ctx := context.Background()
	for _, fail := range []error{errors.New("boom"), context.Canceled} {
		if _, err := g.Do(ctx, "k", nil, func() (string, error) { return "", fail }); err != fail {
			t.Fatalf("err %v, want %v", err, fail)
		}
		if st := g.Stats(); st.Kept != 0 {
			t.Errorf("after %v: %d kept, want 0", fail, st.Kept)
		}
	}
	var n atomic.Int32
	if v, err := g.Do(ctx, "k", nil, value(&n, "ok")); v != "ok" || err != nil || n.Load() != 1 {
		t.Errorf("retry = %q/%v after %d computations, want a fresh success", v, err, n.Load())
	}
}

// TestCoalesces: concurrent callers of one key share one computation,
// and every caller but the creator is reported through joined.
func TestCoalesces(t *testing.T) {
	var g Group[string]
	release := make(chan struct{})
	var n, joins atomic.Int32
	fn := func() (string, error) {
		n.Add(1)
		<-release
		return "v", nil
	}
	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := g.Do(context.Background(), "k", func() { joins.Add(1) }, fn); v != "v" || err != nil {
				errs <- fmt.Errorf("got %q/%v", v, err)
			}
		}()
	}
	waitFor(t, "callers to join", func() bool { return joins.Load() == callers-1 })
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n.Load() != 1 {
		t.Errorf("%d computations for one key, want 1", n.Load())
	}
}

// TestWaiterRetriesAfterOthersCancel is the retry rule: a waiter whose
// context is live does not inherit the creator's cancellation; it
// calls again and becomes the creator of a fresh computation.
func TestWaiterRetriesAfterOthersCancel(t *testing.T) {
	for _, stop := range []error{context.Canceled, context.DeadlineExceeded} {
		var g Group[string]
		cctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		creator := make(chan error, 1)
		go func() {
			_, err := g.Do(cctx, "k", nil, func() (string, error) {
				close(started)
				<-cctx.Done()
				return "", fmt.Errorf("computing k: %w", stop)
			})
			creator <- err
		}()
		<-started

		var joins atomic.Int32
		var n atomic.Int32
		waiter := make(chan string, 1)
		go func() {
			v, err := g.Do(context.Background(), "k", func() { joins.Add(1) }, value(&n, "fresh"))
			if err != nil {
				v = err.Error()
			}
			waiter <- v
		}()
		waitFor(t, "the waiter to join", func() bool { return joins.Load() == 1 })
		cancel()
		if err := <-creator; !errors.Is(err, stop) {
			t.Errorf("%v: creator err %v, want its own", stop, err)
		}
		if v := <-waiter; v != "fresh" {
			t.Errorf("%v: waiter got %q, want the fresh value", stop, v)
		}
		if n.Load() != 1 || joins.Load() != 1 {
			t.Errorf("%v: %d recomputations and %d joins, want 1 each", stop, n.Load(), joins.Load())
		}
	}
}

// TestWaiterSharesOtherFailures: a failure that is not a cancellation
// is the computation's answer, and every waiter gets it.
func TestWaiterSharesOtherFailures(t *testing.T) {
	var g Group[string]
	boom := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})
	go g.Do(context.Background(), "k", nil, func() (string, error) {
		close(started)
		<-release
		return "", boom
	})
	<-started
	var joined atomic.Bool
	waiter := make(chan error, 1)
	go func() {
		_, err := g.Do(context.Background(), "k", func() { joined.Store(true) }, mustNotRun(t))
		waiter <- err
	}()
	waitFor(t, "the waiter to join", joined.Load)
	close(release)
	if err := <-waiter; err != boom {
		t.Errorf("waiter err %v, want the shared failure", err)
	}
}

// TestWaiterLeavesOnOwnContext: a waiter whose own context ends stops
// waiting with its own error and does not retry, while the computation
// runs on for the creator.
func TestWaiterLeavesOnOwnContext(t *testing.T) {
	var g Group[string]
	release := make(chan struct{})
	started := make(chan struct{})
	creator := make(chan string, 1)
	go func() {
		v, _ := g.Do(context.Background(), "k", nil, func() (string, error) {
			close(started)
			<-release
			return "v", nil
		})
		creator <- v
	}()
	<-started
	wctx, cancel := context.WithCancel(context.Background())
	var joined atomic.Bool
	waiter := make(chan error, 1)
	go func() {
		_, err := g.Do(wctx, "k", func() { joined.Store(true) }, mustNotRun(t))
		waiter <- err
	}()
	waitFor(t, "the waiter to join", joined.Load)
	cancel()
	if err := <-waiter; err != context.Canceled {
		t.Errorf("waiter err %v, want its own cancellation", err)
	}
	close(release)
	if v := <-creator; v != "v" {
		t.Errorf("creator got %q after the waiter left", v)
	}
	// A kept value answers even a caller whose context already ended.
	if v, err := g.Do(wctx, "k", nil, mustNotRun(t)); v != "v" || err != nil {
		t.Errorf("kept value under a dead context = %q/%v", v, err)
	}
}

// TestPanicReleasesWaiters: a creator that panics still releases its
// waiters, with an error, and leaves nothing kept.
func TestPanicReleasesWaiters(t *testing.T) {
	var g Group[string]
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		defer func() { recover() }()
		g.Do(context.Background(), "k", nil, func() (string, error) {
			close(started)
			<-release
			panic("creator bug")
		})
	}()
	<-started
	var joined atomic.Bool
	waiter := make(chan error, 1)
	go func() {
		_, err := g.Do(context.Background(), "k", func() { joined.Store(true) }, mustNotRun(t))
		waiter <- err
	}()
	waitFor(t, "the waiter to join", joined.Load)
	close(release)
	if err := <-waiter; err != errPanicked {
		t.Errorf("waiter err %v, want errPanicked", err)
	}
	if st := g.Stats(); st.Kept != 0 {
		t.Errorf("%d kept after a panic", st.Kept)
	}
}
