package main

import (
	"testing"
	"time"

	"bfast/internal/server"
)

// testStream serves small nrt_stream sessions against a live server.
func testStream(t *testing.T, cfg server.Config) *nrtStream {
	t.Helper()
	ls, err := startServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(9, 64, newClient(ls.url, 1))
	t.Cleanup(func() {
		s.close()
		if err := ls.stop(); err != nil {
			t.Error(err)
		}
	})
	return s
}

func TestNRTSessionsAreFreshAndCorrect(t *testing.T) {
	s := testStream(t, server.Config{})
	for k := 0; k < 4; k++ {
		sc, err := genScene(s.seed, k, s.pixels)
		if err != nil {
			t.Fatal(err)
		}
		before := s.hits
		last, err := s.session(sc)
		if err != nil {
			t.Fatal(err)
		}
		if s.hits != before {
			t.Errorf("session %d: fit served %d pixels from the fit cache", k, s.hits-before)
		}
		if err := checkVerdicts(last, sc); err != nil {
			t.Errorf("session %d: %v", k, err)
		}
	}
	if s.out.failed != 0 || s.sessions != 4 || s.lat.n != 4*nrtObserves {
		t.Fatalf("failed %d, sessions %d, observes %d", s.out.failed, s.sessions, s.lat.n)
	}
	// The zero-hit check is not vacuous: refitting a scene hits the cache.
	sc, err := genScene(s.seed, 0, s.pixels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.session(sc); err != nil {
		t.Fatal(err)
	}
	if s.hits == 0 {
		t.Fatal("refitting a scene reported no fit-cache hits")
	}
}

// Every session is deleted before the next fit, so a run never holds
// more than one session and no fit is refused at the session cap.
func TestNRTRunStaysUnderMaxSessions(t *testing.T) {
	s := testStream(t, server.Config{NRT: server.NRTConfig{MaxSessions: 2}})
	if err := s.run(0, time.Second, 0); err != nil {
		t.Fatal(err)
	}
	if s.sessions <= 2 || s.out.failed != 0 {
		t.Fatalf("%d sessions, %d failed requests", s.sessions, s.out.failed)
	}
}

func TestCheckVerdictsRejectsAnotherScene(t *testing.T) {
	s := testStream(t, server.Config{})
	a, err := genScene(s.seed, 0, s.pixels)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genScene(s.seed, 1, s.pixels)
	if err != nil {
		t.Fatal(err)
	}
	last, err := s.session(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkVerdicts(last, b); err == nil {
		t.Fatal("verdicts of scene 0 accepted for scene 1")
	}
}

// The state replay's snapshot is a whole session of the scene, advanced
// through every monitoring date.
func TestSceneSnapshotCoversTheSession(t *testing.T) {
	sc, err := genScene(9, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sceneSnapshot(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Pixels) != sc.m || snap.History != sc.history || snap.Capacity != sc.n || snap.NextDate != sc.n {
		t.Fatalf("snapshot: %d pixels, history %d, capacity %d, next date %d",
			len(snap.Pixels), snap.History, snap.Capacity, snap.NextDate)
	}
}

// The cache fill fits only histories new to the cache, and the sessions
// after it still meet none of them.
func TestFillFitCacheIsFresh(t *testing.T) {
	s := testStream(t, server.Config{})
	bodies, err := cacheFillBodies(s.seed, s.pixels, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.fillFitCache(bodies); err != nil {
		t.Fatal(err)
	}
	sc, err := genScene(s.seed, 0, s.pixels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.session(sc); err != nil {
		t.Fatal(err)
	}
	if s.hits != 0 || s.out.failed != 0 {
		t.Fatalf("%d fit-cache hits, %d failed requests after the fill", s.hits, s.out.failed)
	}
	// Filling again with the same bodies is refused: they are cached now.
	if err := s.fillFitCache(bodies); err == nil {
		t.Fatal("a repeated cache fill reported no cached pixels")
	}
}
