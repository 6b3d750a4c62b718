package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Running cmd/mtx-kv as the process under test: built once from the
// checkout's source, started on a port the kernel picks, stopped with
// SIGTERM and a bounded wait, killed on any other way out.

// buildServer compiles cmd/mtx-kv into the checkout's .bench_build. The
// go command skips the link when the binary is already up to date, so
// every run asks and only the first one pays.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "mtx-kv")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mtx-kv")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/mtx-kv: %w\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one running mtx-kv serve.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	done   chan struct{} // closed when the process has been waited for
}

var (
	serversMu sync.Mutex
	servers   = map[*serverProc]struct{}{}
)

// killServers kills every server still running: the last line of
// defence on the way out, whatever the way.
func killServers() {
	serversMu.Lock()
	defer serversMu.Unlock()
	for s := range servers {
		s.cmd.Process.Kill()
		<-s.done
	}
	clear(servers)
}

var servingLine = regexp.MustCompile(`mtx-kv: serving .* on ([0-9.]+:[0-9]+),`)

// addrWatcher receives the server's standard output and hands over the
// address from its "serving ... on ADDR," line.
type addrWatcher struct {
	buf   []byte
	found chan string // buffered, sent to once
	sent  bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	if !w.sent {
		w.buf = append(w.buf, p...)
		if m := servingLine.FindSubmatch(w.buf); m != nil {
			w.sent = true
			w.found <- string(m[1])
			w.buf = nil
		}
	}
	return len(p), nil
}

const (
	serverStartTimeout = 20 * time.Second
	serverStopTimeout  = 10 * time.Second
)

// startServer starts `mtx-kv serve` in memory with the shipped defaults
// — no engine, shard or limit flag — on 127.0.0.1:0 and returns once it
// has said where it listens. cpu, when not negative, is the one processor
// the server may run on.
func startServer(bin string, cpu int) (*serverProc, error) {
	s := &serverProc{done: make(chan struct{})}
	watch := &addrWatcher{found: make(chan string, 1)}
	s.cmd = exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	s.cmd.Stdout = watch
	s.cmd.Stderr = &s.stderr
	// If this process dies without running its clean-up, the kernel
	// kills the server. It sends the signal when the thread that forked
	// the server exits, so the goroutine that starts the server keeps
	// its thread until it has waited for it. The thread is not handed
	// back after that: it ends with the goroutine, and takes with it the
	// processor mask the server inherited from it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		var err error
		if cpu >= 0 {
			err = setThreadAffinity(0, maskOf(cpu))
		}
		if err == nil {
			err = s.cmd.Start()
		}
		started <- err
		if err == nil {
			s.cmd.Wait()
			close(s.done)
		}
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	serversMu.Lock()
	servers[s] = struct{}{}
	serversMu.Unlock()
	select {
	case s.addr = <-watch.found:
		return s, nil
	case <-s.done:
		s.forget()
		return nil, fmt.Errorf("mtx-kv serve exited before listening: %v\n%s", s.cmd.ProcessState, s.stderr.Bytes())
	case <-time.After(serverStartTimeout):
		s.kill()
		return nil, fmt.Errorf("mtx-kv serve did not report its address within %v\n%s", serverStartTimeout, s.stderr.Bytes())
	}
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

func (s *serverProc) forget() {
	serversMu.Lock()
	delete(servers, s)
	serversMu.Unlock()
}

func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.done
	s.forget()
}

// stop asks the server to shut down and waits for it; a server that
// does not go within serverStopTimeout is killed and reported.
func (s *serverProc) stop() error {
	defer s.forget()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("signalling mtx-kv: %w", err)
	}
	select {
	case <-s.done:
	case <-time.After(serverStopTimeout):
		s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("mtx-kv serve ignored SIGTERM for %v and was killed", serverStopTimeout)
	}
	if st := s.cmd.ProcessState; !st.Success() {
		return fmt.Errorf("mtx-kv serve exited with %v\n%s", st, s.stderr.Bytes())
	}
	return nil
}
