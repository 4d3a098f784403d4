package load

import (
	"encoding/json"
	"fmt"
	"os"
)

// Snapshot is the machine-readable record of one isingload run: the
// service load Report (throughput, latency quantiles, rates, wakeups per
// sweep) and its threshold verdicts, stamped with the measuring runtime.
// CI keeps it as a build artifact. It is not a throughput record: engine
// flips/ns live in the perfbench ledger.
type Snapshot struct {
	// CreatedAt is an RFC3339 stamp supplied by the writer.
	CreatedAt string `json:"created_at,omitempty"`
	// GoVersion, GOOS/GOARCH and GOMAXPROCS pin the measuring machine.
	GoVersion  string `json:"go_version,omitempty"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`

	// Service is the load-scenario report.
	Service *Report `json:"service,omitempty"`
	// Checks are the evaluated thresholds and Passed their conjunction.
	Checks []Check `json:"checks,omitempty"`
	Passed bool    `json:"passed"`
}

// Write atomically writes the snapshot as indented JSON (temp file +
// rename), so a crash mid-write never leaves a truncated snapshot.
func (s *Snapshot) Write(path string) error {
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("load: encoding snapshot: %w", err)
	}
	blob = append(blob, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadSnapshot loads a snapshot written by Write.
func ReadSnapshot(path string) (*Snapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("load: decoding %s: %w", path, err)
	}
	return &s, nil
}
