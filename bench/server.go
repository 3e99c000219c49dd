package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// buildServer compiles cmd/dustserve of the module this benchmark belongs
// to into dir and returns the binary's path. moddir is the benchmark's own
// module directory, whose go.mod points at the repository.
func buildServer(moddir, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "dustserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-C", moddir, "-o", bin, "dust/cmd/dustserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build dustserve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running dustserve subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string
	setup  time.Duration // spawn -> first 200 from /healthz
	exited chan error
	log    bytes.Buffer
	client *http.Client
}

// startServer spawns dustserve on a free loopback port serving the
// workload's lake and waits for its first healthy answer. conns bounds the
// connections the run's client keeps to it.
func startServer(bin string, in *inputs, conns int) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	args := append([]string{"-spec", in.specArg, "-addr", addr,
		"-query-workers", "1", "-inflight", "2"}, in.w.flags...)
	s := &server{base: "http://" + addr, exited: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	deadline := time.After(2 * time.Minute)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("dustserve exited during set-up: %v\n%s", err, s.log.String())
		case <-deadline:
			s.stop()
			return nil, fmt.Errorf("dustserve not healthy after 2m\n%s", s.log.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop kills the server and waits until it has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // already exited is fine: the wait below still ends
	<-s.exited
	s.client.CloseIdleConnections()
}

// do sends one request and reads the whole response; end is when the last
// byte arrived.
func (s *server) do(method, path string, body []byte) (status int, resp []byte, end time.Time, err error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Now(), err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r, err := s.client.Do(req)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	resp, err = io.ReadAll(r.Body)
	end = time.Now()
	r.Body.Close()
	return r.StatusCode, resp, end, err
}

// serverStats is the part of GET /stats the benchmark's books use.
type serverStats struct {
	Epoch     uint64 `json:"epoch"`
	Searches  uint64 `json:"searches"`
	Mutations uint64 `json:"mutations"`
	Degraded  uint64 `json:"degraded"`
	Shed      uint64 `json:"shed"`
	Cache     struct {
		Hits uint64 `json:"hits"`
	} `json:"cache"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	status, body, _, err := s.do(http.MethodGet, "/stats", nil)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// cpu returns the CPU time (user + system) the server has used so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, so the 12th and 13th after it.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times in %q", b)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB returns the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
