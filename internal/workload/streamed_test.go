package workload

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestRecordStreamedMatchesRecord(t *testing.T) {
	cfg := cacheTestConfig(11)
	mem, err := Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.odbgcck")
	// 16 KB chunks force many chunk boundaries even for this small trace.
	streamed, err := RecordStreamed(cfg, path, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Frozen != nil || streamed.Stream == nil {
		t.Fatal("streamed trace should be backed by Stream only")
	}
	if !reflect.DeepEqual(streamed.Stats, mem.Stats) {
		t.Fatalf("stats diverge:\n stream %+v\n memory %+v", streamed.Stats, mem.Stats)
	}
	if streamed.BuildEvents != mem.BuildEvents {
		t.Fatalf("build boundary: streamed %d, in-memory %d", streamed.BuildEvents, mem.BuildEvents)
	}
	if streamed.Stream.Fingerprint() != cfg.Fingerprint() {
		t.Fatalf("fingerprint %#x, want %#x", streamed.Stream.Fingerprint(), cfg.Fingerprint())
	}
	if streamed.Stream.Chunks() < 2 {
		t.Fatalf("16 KB chunks produced only %d chunks", streamed.Stream.Chunks())
	}

	var fromMem, fromStream eventListSink
	var memBuild, streamBuild int64 = -1, -1
	if err := mem.Replay(&fromMem, func() { memBuild = int64(len(fromMem.events)) }); err != nil {
		t.Fatal(err)
	}
	if err := streamed.Replay(&fromStream, func() { streamBuild = int64(len(fromStream.events)) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromStream.events, fromMem.events) {
		t.Fatalf("streamed replay (%d events) diverges from in-memory replay (%d events)",
			len(fromStream.events), len(fromMem.events))
	}
	if streamBuild != memBuild {
		t.Fatalf("buildDone fired at %d streamed, %d in-memory", streamBuild, memBuild)
	}
}

func TestOpenStreamed(t *testing.T) {
	cfg := cacheTestConfig(12)
	mem, err := Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.odbgcck")
	if err := mem.WriteChunked(path, 8<<10); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenStreamed(path)
	if err != nil {
		t.Fatal(err)
	}
	if opened.Stats.Events != mem.Stats.Events {
		t.Fatalf("opened trace reports %d events, want %d", opened.Stats.Events, mem.Stats.Events)
	}
	if opened.BuildEvents != -1 {
		t.Fatalf("opened trace has BuildEvents %d; the file does not carry the boundary", opened.BuildEvents)
	}
	var fromMem, fromFile eventListSink
	if err := mem.Replay(&fromMem, nil); err != nil {
		t.Fatal(err)
	}
	fired := false
	if err := opened.Replay(&fromFile, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("buildDone fired for an opened file with no recorded boundary")
	}
	if !reflect.DeepEqual(fromFile.events, fromMem.events) {
		t.Fatal("replay of written-then-opened file diverges from source trace")
	}
}
