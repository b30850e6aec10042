package store

import (
	"testing"

	"rtcshare/internal/core"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/rpq"
)

// FuzzSnapshotLoad holds the loader to its contract: arbitrary bytes
// produce either a valid SnapshotState or an error — never a panic, and
// never an allocation not backed by input bytes. The seeds include a
// fully valid warmed snapshot so mutation explores the deep decode
// paths (CSR validation, structure reassembly), not just header checks.
func FuzzSnapshotLoad(f *testing.F) {
	e := core.New(fixtures.Figure1(), core.Options{})
	for _, q := range []string{"b.c", "(b.c)+"} {
		if _, err := e.Evaluate(rpq.MustParse(q)); err != nil {
			f.Fatal(err)
		}
	}
	valid := encodeSnapshotFile(e.SnapshotState())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeSnapshotFile(data)
		if err != nil {
			return
		}
		// Whatever decodes must also restore: the validators guarantee
		// structurally sound state, so RestoreEngine may not reject it.
		if _, rerr := core.RestoreEngine(st, core.Options{}); rerr != nil {
			t.Fatalf("decoded snapshot failed restore: %v", rerr)
		}
	})
}

// FuzzWALScan holds the log scanner to the same contract; whatever it
// accepts must re-encode to the same frames it scanned.
func FuzzWALScan(f *testing.F) {
	f.Add(encodeBatch(1, []core.GraphUpdate{core.InsertEdge(0, "a", 1), core.DeleteEdge(2, "b", 0)}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		batches, validLen := scanWAL(data)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d out of range [0,%d]", validLen, len(data))
		}
		off := 0
		for _, b := range batches {
			rec := encodeBatch(b.Epoch, b.Updates)
			if off+len(rec) > int(validLen) || string(rec) != string(data[off:off+len(rec)]) {
				t.Fatal("accepted frames do not re-encode to the scanned bytes")
			}
			off += len(rec)
		}
		if int64(off) != validLen {
			t.Fatalf("frames cover %d bytes, validLen %d", off, validLen)
		}
	})
}
