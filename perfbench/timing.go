package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"fbf/internal/obs"
	"fbf/internal/sim"
	"fbf/internal/store"
)

// opKind names the Backend methods the timing wrapper records.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opStat
	opList
	opDelete
	numOpKinds
)

var opNames = [numOpKinds]string{"read", "write", "stat", "list", "delete"}

// opRecord is one timed Backend call. Start is measured from the
// benchmark's epoch so records line up with the spans.
type opRecord struct {
	kind  opKind
	addr  store.Addr // Disk only, for List
	start time.Duration
	dur   time.Duration
	bytes int
	err   bool
}

// timedBackend wraps a store.Backend and records every call in memory.
// The wrapper sits outside the program: it times the inner call and
// nothing else, so its records are the store layer's busy time.
type timedBackend struct {
	inner store.Backend
	epoch time.Time

	mu  sync.Mutex
	ops []opRecord
}

func newTimedBackend(inner store.Backend, epoch time.Time, capacity int) *timedBackend {
	return &timedBackend{inner: inner, epoch: epoch, ops: make([]opRecord, 0, capacity)}
}

func (t *timedBackend) record(kind opKind, a store.Addr, start time.Time, bytes int, err error) {
	end := time.Now()
	t.mu.Lock()
	t.ops = append(t.ops, opRecord{kind: kind, addr: a, start: start.Sub(t.epoch), dur: end.Sub(start), bytes: bytes, err: err != nil})
	t.mu.Unlock()
}

func (t *timedBackend) ReadChunk(a store.Addr, dst []byte) (int, error) {
	start := time.Now()
	n, err := t.inner.ReadChunk(a, dst)
	t.record(opRead, a, start, n, err)
	return n, err
}

func (t *timedBackend) WriteChunk(a store.Addr, data []byte) error {
	start := time.Now()
	err := t.inner.WriteChunk(a, data)
	t.record(opWrite, a, start, len(data), err)
	return err
}

func (t *timedBackend) Delete(a store.Addr) error {
	start := time.Now()
	err := t.inner.Delete(a)
	t.record(opDelete, a, start, 0, err)
	return err
}

func (t *timedBackend) List(disk int) ([]store.Addr, error) {
	start := time.Now()
	addrs, err := t.inner.List(disk)
	t.record(opList, store.Addr{Disk: disk}, start, 0, err)
	return addrs, err
}

func (t *timedBackend) Stat(a store.Addr) (store.Info, error) {
	start := time.Now()
	info, err := t.inner.Stat(a)
	t.record(opStat, a, start, 0, err)
	return info, err
}

// spans keeps trace events in memory until the benchmark exits. Event
// timestamps are nanoseconds since the benchmark's epoch, which the obs
// writers render as Chrome microseconds.
type spans struct {
	epoch  time.Time
	events []obs.Event
	nextID int64
}

func (s *spans) add(name, cat string, track obs.Track, start, dur time.Duration, args ...obs.Arg) int64 {
	s.nextID++
	s.events = append(s.events, obs.Event{
		Name: name, Cat: cat, Ph: obs.PhaseSpan, Track: track,
		TS: sim.Time(start), Dur: sim.Time(dur),
		Args: append([]obs.Arg{{Key: "id", Val: s.nextID}}, args...),
	})
	return s.nextID
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// unitCost times fn until at least minDur has passed (and at least
// minIter calls) and returns the mean duration of one call.
func unitCost(minDur time.Duration, minIter int, fn func()) time.Duration {
	start := time.Now()
	n := 0
	for n < minIter || time.Since(start) < minDur {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}
