package pipes

import (
	"context"
	"net"
	"testing"
	"time"
)

// TestServeShutdownCheckpointsPins serves a durable system, takes one
// watch over HTTP, and shuts it down: the final checkpoint must carry
// the system's pin (recovery re-pins it with no WAL record to replay)
// and not the watch, which the hub released before the checkpoint.
func TestServeShutdownCheckpointsPins(t *testing.T) {
	dir := t.TempDir()
	opts := DurabilityOptions{CheckpointEvery: -1}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	sys := NewSystem(WithStatWindow(50), WithDurability(dir, opts))
	f := buildPipeline(sys)
	if _, err := sys.OpenDurability(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Subscribe(KindSelectivity); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Serve(ln); err != nil {
		t.Fatal(err)
	}
	if err := sys.Serve(ln); err == nil {
		t.Fatal("second Serve did not error")
	}
	m, err := NewWatchClient("http://" + ln.Addr().String()).Mux(ctx)
	if err != nil {
		sys.Close()
		t.Fatal(err)
	}
	rejects, err := m.Add(ctx, map[uint64]MuxWatch{1: {Registry: f.Metadata().ID(), Kind: string(KindInputRate)}})
	if err != nil || len(rejects) != 0 {
		sys.Close()
		t.Fatalf("Add = %v, %v", rejects, err)
	}
	ev, err := m.Next()
	if err != nil || !ev.Snapshot || ev.ID != 1 {
		sys.Close()
		t.Fatalf("first event = %+v, %v; want a snapshot on watch 1", ev, err)
	}
	m.Close()
	for sys.Now() < 5 && ctx.Err() == nil { // the wall paces the clock
		time.Sleep(time.Millisecond)
	}
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if sys.Now() < 5 {
		t.Fatalf("served clock at %d after the wait, want >= 5", sys.Now())
	}

	sys2 := NewSystem(WithStatWindow(50), WithDurability(dir, opts))
	f2 := buildPipeline(sys2)
	rs, err := sys2.OpenDurability()
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Shutdown(context.Background())
	if !rs.Recovered || rs.WALRecords != 0 || rs.Subscribed != 1 {
		t.Fatalf("recovery stats = %+v, want 0 WAL records and 1 re-pinned subscription", rs)
	}
	if !f2.Metadata().IsIncluded(KindSelectivity) || f2.Metadata().IsIncluded(KindInputRate) {
		t.Fatal("recovery did not re-pin exactly the pin")
	}
}
