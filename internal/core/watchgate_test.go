package core

import (
	"errors"
	"sync"
	"testing"
)

// recordingSink records every Published call, for gate tests.
type recordingSink struct {
	mu   sync.Mutex
	vers []uint64
}

func (s *recordingSink) Published(v uint64) {
	s.mu.Lock()
	s.vers = append(s.vers, v)
	s.mu.Unlock()
}

// take returns the versions recorded since the last take.
func (s *recordingSink) take() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	vers := s.vers
	s.vers = nil
	return vers
}

func (s *recordingSink) versions() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.vers...)
}

func TestWatchGateNotifiesOnPublish(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "src", 1.0)
	defineDerived(r, "sum", Dep(Self(), "src"))
	sub, err := r.Subscribe("sum")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()

	sink := &recordingSink{}
	v0, err := r.Watch("sum", sink)
	if err != nil {
		t.Fatal(err)
	}
	if v0 != 1 {
		t.Fatalf("Watch anchor = %d, want 1 (initial compute)", v0)
	}
	if got, ok := r.ItemVersion("sum"); !ok || got != v0 {
		t.Fatalf("ItemVersion = %d, %v; want %d, true", got, ok, v0)
	}

	r.NotifyChanged("src") // triggers a refresh of sum
	vers := sink.versions()
	if len(vers) != 1 || vers[0] != 2 {
		t.Fatalf("sink saw %v, want [2]", vers)
	}

	r.Unwatch("sum")
	r.NotifyChanged("src")
	if got := sink.versions(); len(got) != 1 {
		t.Fatalf("sink saw %v after Unwatch, want no new notifications", got)
	}
}

func TestWatchGateErrors(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "src", 1.0)
	if _, err := r.Watch("src", &recordingSink{}); !errors.Is(err, ErrUnsubscribed) {
		t.Fatalf("Watch on non-included item: err = %v, want ErrUnsubscribed", err)
	}
	if _, err := r.Watch("src", nil); err == nil {
		t.Fatal("Watch with nil sink succeeded")
	}
	r.Unwatch("src") // no-op on a never-watched kind
	if _, ok := r.ItemVersion("src"); ok {
		t.Fatal("ItemVersion ok on non-included item")
	}
}

func TestWatchSinkSurvivesReinclusion(t *testing.T) {
	env, _ := testEnv()
	r := env.NewRegistry("n1")
	defineConst(r, "src", 1.0)
	defineDerived(r, "sum", Dep(Self(), "src"))
	sub, err := r.Subscribe("sum")
	if err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{}
	if _, err := r.Watch("sum", sink); err != nil {
		t.Fatal(err)
	}
	sub.Unsubscribe() // entry released; sink stays registered

	sub2, err := r.Subscribe("sum")
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Unsubscribe()
	// The fresh entry's initial compute publishes version 1 through the
	// re-attached sink.
	vers := sink.versions()
	if len(vers) == 0 || vers[len(vers)-1] != 1 {
		t.Fatalf("sink saw %v after re-inclusion, want trailing 1", vers)
	}
}
