package counting

import (
	"context"
	"testing"

	"shapesol/internal/pop"
	"shapesol/internal/pop/urn"
	"shapesol/internal/snap"
)

// The snapshot cost baseline at the paper's headline scale: Theorem 1 on
// the urn engine at n = 10^6. Capture is a deep copy of the slot tables
// plus a gob encode; restore is the inverse plus a pair-sampler rebuild.
// Both are O(m^2) in the distinct-state count m (the pair table), which stays
// O(1) for the counting protocols — so checkpointing a million-agent run
// costs microseconds, and the daemon can checkpoint on every progress
// tick without denting throughput. scripts/bench_snapshot.sh records
// these numbers as the perf trajectory's snapshot baseline.

// benchUrnWorld warms a world past the initial transient: the run is
// canceled from its first Progress tick, the daemon's capture point.
func benchUrnWorld(b *testing.B, n int) *urn.World[UBState] {
	b.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewUpperBoundUrnWorld(n, 5, 1, 1<<62, func(int64) { cancel() })
	if res := w.RunContext(ctx); res.Reason != pop.ReasonCanceled {
		b.Fatalf("warm-up ended with %v, want canceled", res.Reason)
	}
	return w
}

func BenchmarkSnapshotCaptureUrn1M(b *testing.B) {
	w := benchUrnWorld(b, 1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := w.Memento()
		if _, err := snap.EncodeState(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotRestoreUrn1M(b *testing.B) {
	w := benchUrnWorld(b, 1_000_000)
	data, err := snap.EncodeState(w.Memento())
	if err != nil {
		b.Fatal(err)
	}
	fresh := NewUpperBoundUrnWorld(1_000_000, 5, 1, 1<<62, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m urn.Memento[UBState]
		if err := snap.DecodeState(data, &m); err != nil {
			b.Fatal(err)
		}
		if err := fresh.RestoreMemento(&m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotCapturePop100k(b *testing.B) {
	w := NewUpperBoundWorld(100_000, 5, 1, 1<<40, nil)
	for i := 0; i < 50_000; i++ {
		w.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := w.Memento()
		if _, err := snap.EncodeState(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotRestorePop100k(b *testing.B) {
	w := NewUpperBoundWorld(100_000, 5, 1, 1<<40, nil)
	for i := 0; i < 50_000; i++ {
		w.Step()
	}
	data, err := snap.EncodeState(w.Memento())
	if err != nil {
		b.Fatal(err)
	}
	fresh := NewUpperBoundWorld(100_000, 5, 1, 1<<40, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m pop.Memento[UBState]
		if err := snap.DecodeState(data, &m); err != nil {
			b.Fatal(err)
		}
		if err := fresh.RestoreMemento(&m); err != nil {
			b.Fatal(err)
		}
	}
}
