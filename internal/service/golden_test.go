package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// goldenKinds is one job of each kind the mixed service benchmark cycles
// through — a checkpointable single chain, a 16-lane batch and a 4-rung
// tempering ladder — at fixed seeds. Their NDJSON streams are pinned to
// bytes captured from the service before samples were stored compactly, so
// any change to how a job keeps or renders its sample history must leave the
// wire output untouched.
var goldenKinds = []struct {
	name string
	spec JobSpec
}{
	{"single", JobSpec{Backend: "multispin", Rows: 128, Cols: 128, Temperature: 2.5,
		Sweeps: 260, Hot: true, SampleInterval: 10, Workers: 1, Replicas: 1, Seed: 11}},
	{"batch", JobSpec{Backend: "multispin", Rows: 64, Cols: 64, Temperature: 2.5,
		Sweeps: 70, Hot: true, SampleInterval: 10, Workers: 1, Replicas: 16, Seed: 12}},
	{"ladder", JobSpec{Backend: "multispin", Rows: 64, Cols: 64,
		Temperatures: []float64{2.1, 2.2, 2.3, 2.4}, SwapInterval: 10,
		Sweeps: 100, Hot: true, SampleInterval: 1, Workers: 1, Replicas: 1, Seed: 13}},
}

// goldenStream runs one job to completion and returns its /stream body.
func goldenStream(t *testing.T, spec JobSpec) ([]byte, *Job) {
	t.Helper()
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, j
}

// TestStreamBytesGolden pins each kind's NDJSON stream to its captured bytes.
func TestStreamBytesGolden(t *testing.T) {
	for _, k := range goldenKinds {
		t.Run(k.name, func(t *testing.T) {
			got, j := goldenStream(t, k.spec)
			assertClipped(t, j)
			want, err := os.ReadFile(filepath.Join("testdata", "stream_"+k.name+".ndjson"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("stream differs from the golden capture (%d bytes, want %d)", len(got), len(want))
			}
		})
	}
}

// assertClipped requires a terminal job's retained history to hold no
// append slack.
func assertClipped(t *testing.T, j *Job) {
	t.Helper()
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.terminal() {
		t.Fatalf("job %s is %s, not terminal", j.ID(), j.state)
	}
	if len(j.samples) != cap(j.samples) {
		t.Fatalf("terminal job %s keeps %d samples in capacity %d", j.ID(), len(j.samples), cap(j.samples))
	}
}

// TestCanceledJobHistoryClipped: a job canceled mid-run stops short of the
// spec's sample count, and its history is still clipped at the transition.
func TestCanceledJobHistoryClipped(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	j, err := srv.Submit(JobSpec{Backend: "checkerboard", Rows: 16, Sweeps: 1 << 22,
		Temperature: 2.5, Seed: 3, SampleInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	for {
		recs, _, _, updated := j.watch()
		if len(recs) > 0 {
			break
		}
		<-updated
	}
	if _, err := srv.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, j); st.State != StateCanceled {
		t.Fatalf("job state %s, want canceled", st.State)
	}
	assertClipped(t, j)
}
