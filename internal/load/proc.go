package load

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sync"
	"time"
)

// Proc supervises one child process the harness owns: the vserved daemon
// under test, or one fleet worker. Chaos kills the child with SIGKILL — a
// crash, not a shutdown, because the queue's durability and the lease
// protocol's requeue are what is under test — and starts a fresh one with
// the same command line. A child has started once it prints a line matching
// the ready pattern. The pattern's first submatch (a daemon's base URL, a
// worker's fleet id) is read again on every start, because a reborn child
// may print another one: an ephemeral port moves, a worker draws a new id.
type Proc struct {
	args    []string
	logPath string
	ready   *regexp.Regexp
	timeout time.Duration

	mu    sync.Mutex
	cmd   *exec.Cmd
	match string
}

// StartProc launches args (the first is the binary) with stdout and stderr
// appended to logPath, waits up to timeout for an output line matching
// ready, and returns the supervised process. ready must hold one
// parenthesized group. timeout <= 0 selects 30s.
func StartProc(args []string, logPath string, ready *regexp.Regexp, timeout time.Duration) (*Proc, error) {
	if len(args) == 0 {
		return nil, errors.New("load: empty command line")
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	p := &Proc{args: args, logPath: logPath, ready: ready, timeout: timeout}
	if err := p.start(); err != nil {
		return nil, err
	}
	return p, nil
}

// start spawns one child and waits for its ready line. The caller holds
// p.mu, or has not shared p yet.
func (p *Proc) start() error {
	logf, err := os.OpenFile(p.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("load: process log: %w", err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		logf.Close()
		return fmt.Errorf("load: process pipe: %w", err)
	}
	cmd := exec.Command(p.args[0], p.args[1:]...)
	cmd.Stdout = pw
	cmd.Stderr = pw
	err = cmd.Start()
	pw.Close() // the child holds the write end now
	if err != nil {
		logf.Close()
		pr.Close()
		return fmt.Errorf("load: starting %s: %w", p.args[0], err)
	}

	// Tee the child's output into the log, handing over the first ready
	// line's submatch; the goroutine lives until the child exits and closes
	// the pipe.
	readyCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := p.ready.FindStringSubmatch(line); m != nil {
				select {
				case readyCh <- m[1]:
				default:
				}
			}
		}
		io.Copy(logf, pr)
		pr.Close()
		logf.Close()
	}()

	select {
	case p.match = <-readyCh:
		p.cmd = cmd
		return nil
	case <-time.After(p.timeout):
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("load: %s printed no line matching %#q within %s (log: %s)", p.args[0], p.ready, p.timeout, p.logPath)
	}
}

// Ready returns the first submatch of the current child's ready line.
func (p *Proc) Ready() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.match
}

// Kill terminates the child ungracefully (SIGKILL) and reaps it. It is safe
// to call twice, and after a failed Restart.
func (p *Proc) Kill() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killLocked()
}

func (p *Proc) killLocked() error {
	if p.cmd == nil {
		return nil
	}
	if err := p.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("load: killing %s: %w", p.args[0], err)
	}
	p.cmd.Wait()
	p.cmd = nil
	return nil
}

// Restart is the chaos step: SIGKILL the running child, start a fresh one
// with the same command line, and return its ready submatch.
func (p *Proc) Restart() (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.killLocked(); err != nil {
		return "", err
	}
	if err := p.start(); err != nil {
		return "", err
	}
	return p.match, nil
}
