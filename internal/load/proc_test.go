package load

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// readyPID is the ready line of the test children: each prints its own pid.
var readyPID = regexp.MustCompile(`ready pid=(\d+)`)

func needSh(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("no sh on PATH")
	}
}

// alive reports whether the process pid still exists.
func alive(t *testing.T, pid string) bool {
	t.Helper()
	n, err := strconv.Atoi(pid)
	if err != nil {
		t.Fatalf("ready submatch %q is not a pid", pid)
	}
	p, err := os.FindProcess(n)
	return err == nil && p.Signal(syscall.Signal(0)) == nil
}

// TestProcRestartAndKill supervises an sh child that prints its ready line
// and sleeps: the submatch is captured, Restart kills the child and captures
// the reborn child's line, and Kill is safe twice.
func TestProcRestartAndKill(t *testing.T) {
	needSh(t)
	logPath := filepath.Join(t.TempDir(), "child.log")
	p, err := StartProc([]string{"sh", "-c", "echo ready pid=$$; exec sleep 60"}, logPath, readyPID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Kill() })
	first := p.Ready()
	if !alive(t, first) {
		t.Fatalf("child %s not running after its ready line", first)
	}

	reborn, err := p.Restart()
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if reborn == first || p.Ready() != reborn {
		t.Fatalf("restart captured %q (Ready %q), want the reborn child's pid, not %q", reborn, p.Ready(), first)
	}
	if alive(t, first) {
		t.Fatalf("restart left the first child %s running", first)
	}
	if !alive(t, reborn) {
		t.Fatalf("reborn child %s not running", reborn)
	}

	if err := p.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if alive(t, reborn) {
		t.Fatalf("kill left child %s running", reborn)
	}
	if err := p.Kill(); err != nil {
		t.Fatalf("second kill: %v", err)
	}
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range []string{first, reborn} {
		if !strings.Contains(string(log), "ready pid="+pid) {
			t.Errorf("log lacks child %s's ready line: %q", pid, log)
		}
	}
}

// TestProcReadyTimeout starts a child that never prints its ready line: the
// start fails within the timeout, naming the log to read.
func TestProcReadyTimeout(t *testing.T) {
	needSh(t)
	logPath := filepath.Join(t.TempDir(), "silent.log")
	began := time.Now()
	p, err := StartProc([]string{"sh", "-c", "exec sleep 60"}, logPath, readyPID, 200*time.Millisecond)
	if err == nil {
		p.Kill()
		t.Fatal("a child without its ready line was accepted")
	}
	if !strings.Contains(err.Error(), logPath) {
		t.Fatalf("error %q does not name the log %s", err, logPath)
	}
	if took := time.Since(began); took > 10*time.Second {
		t.Fatalf("start gave up after %v, want about the 200ms timeout", took)
	}
}

// TestProcExitsBeforeReady starts a child that prints something else and
// exits: the start fails as soon as the child's output ends, well inside the
// 30s timeout, naming the exit status and the log, which holds the output.
func TestProcExitsBeforeReady(t *testing.T) {
	needSh(t)
	logPath := filepath.Join(t.TempDir(), "early.log")
	began := time.Now()
	p, err := StartProc([]string{"sh", "-c", "echo boom; exit 3"}, logPath, readyPID, 30*time.Second)
	if err == nil {
		p.Kill()
		t.Fatal("a child that exited before its ready line was accepted")
	}
	if took := time.Since(began); took > 2*time.Second {
		t.Fatalf("start gave up after %v, want at once", took)
	}
	for _, want := range []string{"exit status 3", logPath} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if log, err := os.ReadFile(logPath); err != nil || !strings.Contains(string(log), "boom") {
		t.Errorf("log = %q, %v; want the child's output", log, err)
	}
}
