package main_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// buildFarmerd compiles the daemon once for a test, returning the binary
// path.
func buildFarmerd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "farmerd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startProc boots one farmerd process with the given extra flags and
// returns its base URL. Stderr is scanned for the resolved listen address
// and forwarded for debugging.
func startProc(t *testing.T, bin, tag string, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = os.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintf(os.Stderr, "[%s] %s\n", tag, line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		return "http://" + addr, cmd
	case <-time.After(15 * time.Second):
		t.Fatalf("%s did not report its listen address", tag)
		return "", nil
	}
}

// clusterStats polls GET /cluster/v1/stats on a coordinator.
func clusterStats(t *testing.T, baseURL string) map[string]int {
	t.Helper()
	resp, err := http.Get(baseURL + "/cluster/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFarmerdClusterEndToEnd is the cluster smoke: a coordinator and two
// worker daemons as real processes over one shared store directory, a
// FARMER and a CHARM job mined distributed and compared byte-for-byte
// against a standalone daemon, with one worker SIGKILLed mid-FARMER-run —
// the job must still complete, correctly.
func TestFarmerdClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e smoke skipped in -short mode")
	}
	bin := buildFarmerd(t)

	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	if err := os.Mkdir(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, "paper.txt"), []byte(paperExample), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, "slow.txt"), []byte(slowExample()), 0o644); err != nil {
		t.Fatal(err)
	}

	// The baseline: a standalone daemon, no cluster flags at all.
	soloURL, _ := startProc(t, bin, "solo", "-data", dataDir, "-workers", "2", "-drain", "5s")

	// The cluster: one coordinator, two workers sharing one store dir (so
	// dataset shipping exercises the store-backed fetch-or-load path).
	coordURL, _ := startProc(t, bin, "coord",
		"-data", dataDir, "-workers", "2", "-drain", "5s",
		"-coordinator", "-lease-ttl", "1s", "-cluster-chunks", "6")
	storeDir := filepath.Join(dir, "workerstore")
	_, w1 := startProc(t, bin, "w1",
		"-worker-of", coordURL, "-worker-id", "w1", "-store", storeDir, "-drain", "1s")
	_, _ = startProc(t, bin, "w2",
		"-worker-of", coordURL, "-worker-id", "w2", "-store", storeDir, "-drain", "1s")

	deadline := time.Now().Add(15 * time.Second)
	for clusterStats(t, coordURL)["active_workers"] < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("workers never joined: %v", clusterStats(t, coordURL))
		}
		time.Sleep(50 * time.Millisecond)
	}

	runBoth := func(spec serve.JobSpec) (cluster, solo []string) {
		t.Helper()
		cj := postJob(t, coordURL, spec)
		sj := postJob(t, soloURL, spec)
		cst := waitFor(t, coordURL, cj.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
		sst := waitFor(t, soloURL, sj.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
		if cst.State != serve.StateDone {
			t.Fatalf("cluster job %s ended %q: %s", cj.ID, cst.State, cst.Error)
		}
		if sst.State != serve.StateDone {
			t.Fatalf("solo job %s ended %q: %s", sj.ID, sst.State, sst.Error)
		}
		return readStream(t, coordURL, cj.ID), readStream(t, soloURL, sj.ID)
	}

	compare := func(label string, cluster, solo []string) {
		t.Helper()
		if len(cluster) != len(solo) {
			t.Fatalf("%s: cluster emitted %d records, solo %d", label, len(cluster), len(solo))
		}
		for i := range cluster {
			if cluster[i] != solo[i] {
				t.Fatalf("%s: record %d differs\ncluster: %s\nsolo:    %s", label, i, cluster[i], solo[i])
			}
		}
	}

	// FARMER over the paper example: partition leases.
	cr, sr := runBoth(serve.JobSpec{Miner: "farmer", Dataset: "paper", MinSup: 3, Workers: -1})
	if len(cr) == 0 {
		t.Fatal("farmer job emitted nothing")
	}
	compare("farmer", cr, sr)

	// CHARM: not row-partitionable, so it runs on the coordinator's local
	// runner.
	cr, sr = runBoth(serve.JobSpec{Miner: "charm", Dataset: "paper", MinSup: 2})
	if len(cr) == 0 {
		t.Fatal("charm job emitted nothing")
	}
	compare("charm", cr, sr)

	// Worker-loss run: submit the slow FARMER job, SIGKILL one worker while
	// it is mid-lease, and require the survivors (plus the reaper's
	// re-queues) to finish the job with the exact single-node result.
	cj := postJob(t, coordURL, serve.JobSpec{Miner: "farmer", Dataset: "slow", MinSup: 1, Workers: -1})
	waitFor(t, coordURL, cj.ID, func(s serve.JobStatus) bool { return s.State == serve.StateRunning })
	time.Sleep(300 * time.Millisecond) // let leases land on both workers
	if err := w1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cst := waitFor(t, coordURL, cj.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	if cst.State != serve.StateDone {
		t.Fatalf("cluster job after worker kill ended %q: %s", cst.State, cst.Error)
	}

	sj := postJob(t, soloURL, serve.JobSpec{Miner: "farmer", Dataset: "slow", MinSup: 1, Workers: -1})
	waitFor(t, soloURL, sj.ID, func(s serve.JobStatus) bool { return s.State.Terminal() })
	compare("farmer after worker kill", readStream(t, coordURL, cj.ID), readStream(t, soloURL, sj.ID))
}
