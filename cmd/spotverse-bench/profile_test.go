package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// protoBuilder writes the few protobuf fields a profile needs.
type protoBuilder struct{ b []byte }

func (p *protoBuilder) uint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|wireVarint)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuilder) bytes(num int, payload []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|wireBytes)
	p.b = binary.AppendUvarint(p.b, uint64(len(payload)))
	p.b = append(p.b, payload...)
}

func (p *protoBuilder) packed(num int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(num, q)
}

// syntheticProfile builds a gzipped profile.proto whose samples have the
// given stacks (leaf first, one function per location, except that a
// stack entry holding several names is one location with inlined
// lines) and counts.
func syntheticProfile(t *testing.T, stacks [][][]string, counts []uint64) []byte {
	t.Helper()
	var prof protoBuilder
	strs := []string{""}
	strIdx := map[string]uint64{}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	fnID := map[string]uint64{}
	var locs []protoBuilder
	for si, stack := range stacks {
		var ids []uint64
		for _, loc := range stack {
			var lb protoBuilder
			id := uint64(len(locs) + 1)
			lb.uint(1, id)
			for _, name := range loc {
				if _, ok := fnID[name]; !ok {
					fnID[name] = uint64(len(fnID) + 1)
					var fb protoBuilder
					fb.uint(1, fnID[name])
					fb.uint(2, intern(name))
					prof.bytes(5, fb.b)
				}
				var line protoBuilder
				line.uint(1, fnID[name])
				line.uint(2, 10)
				lb.bytes(4, line.b)
			}
			locs = append(locs, lb)
			ids = append(ids, id)
		}
		var sb protoBuilder
		sb.packed(1, ids...)
		sb.packed(2, counts[si], counts[si]*1e6)
		prof.bytes(2, sb.b)
	}
	for _, l := range locs {
		prof.bytes(4, l.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func frames(names ...string) [][]string {
	out := make([][]string, len(names))
	for i, n := range names {
		out[i] = []string{n}
	}
	return out
}

func TestProfileAttribution(t *testing.T) {
	stacks := [][][]string{
		// malloc under the engine counts toward simclock.
		frames("runtime.mallocgc", "spotverse/internal/simclock.(*Engine).Step", "spotverse/internal/experiment.runFleetShardLabeled", "main.main"),
		// Background GC is runtime.gc even below a repository frame.
		frames("runtime.scanobject", "runtime.gcBgMarkWorker", "runtime.goexit"),
		// Sorting inside the shard merge is experiment.merge.
		frames("sort.insertionSort", "spotverse/internal/experiment.mergeShards.func2", "spotverse/internal/experiment.mergeShards", "spotverse/internal/experiment.RunFleetSharded"),
		// Sub-packages fold into their layer.
		frames("spotverse/internal/services/dynamo.(*Store).Get", "spotverse/internal/core.(*Monitor).collect"),
		frames("spotverse/internal/baselines.(*SkyPilotLike).OnInterrupted", "main.(*timedStrategy).OnInterrupted", "spotverse/internal/experiment.(*shardDriver).onTerminate"),
		// The benchmark's own frames are bench.
		frames("time.Now", "main.(*timedStrategy).OnInterrupted", "spotverse/internal/experiment.(*shardDriver).onTerminate"),
		// No repository frame: the network stack, or the runtime.
		frames("syscall.Syscall", "internal/poll.(*FD).Read", "net/http.(*conn).serve"),
		frames("runtime.futex", "runtime.findRunnable", "runtime.schedule"),
		// Inlined lines of one location are innermost first.
		{{"spotverse/internal/catalog.(*Catalog).Spec", "spotverse/internal/cloud.(*Provider).launch"}, {"spotverse/internal/experiment.Run"}},
		frames("spotverse/internal/report.(*Table).Render", "main.runExperiment"),
	}
	counts := []uint64{7, 5, 3, 4, 2, 1, 6, 8, 9, 10}
	got, total, err := attributeProfile(syntheticProfile(t, stacks, counts))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"simclock": 7, "runtime.gc": 5, "experiment.merge": 3, "services": 4,
		"strategy": 2, "bench": 1, "net": 6, "runtime.other": 8, "catalog": 9,
		"internal.other": 10,
	}
	var sum int64
	for _, l := range layers {
		if got[l] != want[l] {
			t.Errorf("layer %s: %d samples, want %d", l, got[l], want[l])
		}
		sum += got[l]
	}
	if total != 55 || sum != total {
		t.Errorf("total %d, layers sum %d, want 55 both", total, sum)
	}
	for l := range got {
		if !contains(layers, l) {
			t.Errorf("sample attributed to unlisted layer %q", l)
		}
	}
}

func TestDecodeProfileRejectsTruncation(t *testing.T) {
	data := syntheticProfile(t, [][][]string{frames("main.main")}, []uint64{1})
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw.Bytes()[:raw.Len()-2])
	zw.Close()
	if _, err := decodeProfile(gz.Bytes()); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
