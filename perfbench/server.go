package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"blinkml/internal/serve"
)

// server is one blinkml-serve process started from the tree under test, at
// its default configuration, listening on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	client *http.Client
	log    bytes.Buffer
	// peakRSSMB is set by stop from the exited process's resource usage.
	peakRSSMB float64
}

// startServer launches blinkml-serve with its registry under workDir and
// waits until /healthz answers.
func startServer(bin, workDir string) (*server, error) {
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{
		base:   "http://" + net.JoinHostPort("127.0.0.1", strconv.Itoa(port)),
		dir:    dir,
		client: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	s.cmd = exec.Command(bin, "-addr", net.JoinHostPort("127.0.0.1", strconv.Itoa(port)), "-dir", filepath.Join(dir, "registry"))
	s.cmd.Stdout = &s.log
	s.cmd.Stderr = &s.log
	// The server must not outlive the benchmark, however the benchmark ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		var h serve.Health
		if err := s.getJSON("/healthz", &h); err == nil && h.Status != "" {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("blinkml-serve did not come up: %s", s.log.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop terminates the server gracefully, waits for it, records its peak
// RSS and removes its state directory.
func (s *server) stop() {
	if s.cmd.Process != nil && s.cmd.ProcessState == nil {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = s.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-done
		}
		if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.peakRSSMB = float64(ru.Maxrss) / 1024
		}
	}
	s.client.CloseIdleConnections()
	_ = os.RemoveAll(s.dir)
}

// cpu returns the server process's CPU time so far.
func (s *server) cpu() time.Duration {
	d, _ := procCPU(s.cmd.Process.Pid)
	return d
}

func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	return decodeResponse(resp, http.StatusOK, v)
}

func (s *server) postJSON(path string, body, v any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return s.post(path, "application/json", bytes.NewReader(b), http.StatusAccepted, v)
}

func (s *server) post(path, contentType string, body io.Reader, want int, v any) error {
	resp, err := s.client.Post(s.base+path, contentType, body)
	if err != nil {
		return err
	}
	return decodeResponse(resp, want, v)
}

func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, v)
}

// train submits a training job and polls it until it is terminal. It
// returns the final status and the client-observed time from the POST to
// the poll that saw the terminal state.
func (s *server) train(ctx context.Context, req serve.TrainRequest, poll time.Duration) (serve.JobStatus, time.Duration, error) {
	start := time.Now()
	var ack serve.TrainResponse
	if err := s.postJSON("/v1/train", req, &ack); err != nil {
		return serve.JobStatus{}, 0, err
	}
	for {
		var st serve.JobStatus
		if err := s.getJSON("/v1/jobs/"+ack.JobID, &st); err != nil {
			return st, 0, err
		}
		if st.Done() {
			return st, time.Since(start), nil
		}
		select {
		case <-ctx.Done():
			return st, 0, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// model fetches a registered model with its parameters.
func (s *server) model(id string) (serve.ModelInfo, error) {
	var m serve.ModelInfo
	err := s.getJSON("/v1/models/"+id+"?theta=1", &m)
	if err == nil && len(m.Theta) == 0 {
		err = errors.New("model " + id + " has no parameters")
	}
	return m, err
}

// metricsText fetches the Prometheus exposition.
func (s *server) metricsText() (string, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// promSample returns the value of the exposition line whose series (name
// plus labels) is exactly series, or 0 when absent.
func promSample(text, series string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, series+" ") {
			v, _ := strconv.ParseFloat(strings.TrimSpace(line[len(series):]), 64)
			return v
		}
	}
	return 0
}

// promHistogram returns the cumulative (upper bound, count) buckets of a
// Prometheus histogram series selected by name and label prefix.
func promHistogram(text, name, labels string) (bounds, cum []float64) {
	prefix := name + "_bucket{" + labels
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.Index(line, `"}`)
		if i < 0 || j < i {
			continue
		}
		le, err := strconv.ParseFloat(line[i+4:j], 64)
		if err != nil {
			le = 0 // +Inf
		}
		c, _ := strconv.ParseFloat(strings.TrimSpace(line[j+2:]), 64)
		if line[i+4:j] == "+Inf" {
			le = -1
		}
		bounds = append(bounds, le)
		cum = append(cum, c)
	}
	return bounds, cum
}

// histDeltaQuantile returns the q-quantile of the observations a
// cumulative histogram gained between two scrapes, interpolated linearly
// within the owning bucket (the overflow bucket reports its lower bound).
func histDeltaQuantile(bounds, before, after []float64, q float64) float64 {
	if len(after) == 0 {
		return 0
	}
	delta := make([]float64, len(after))
	for i := range after {
		d := after[i]
		if i < len(before) {
			d -= before[i]
		}
		delta[i] = d
	}
	total := delta[len(delta)-1]
	if total <= 0 {
		return 0
	}
	rank := math.Max(q*total, 1)
	prevCum, prevBound := 0.0, 0.0
	for i, c := range delta {
		if c >= rank {
			if bounds[i] < 0 {
				return prevBound
			}
			n := c - prevCum
			if n <= 0 {
				return bounds[i]
			}
			return prevBound + (bounds[i]-prevBound)*(rank-prevCum)/n
		}
		prevCum = c
		if bounds[i] >= 0 {
			prevBound = bounds[i]
		}
	}
	return prevBound
}

// expvars fetches the server's published expvars from /metrics.json.
func (s *server) expvars() (map[string]json.RawMessage, error) {
	var all map[string]json.RawMessage
	err := s.getJSON("/metrics.json", &all)
	return all, err
}

// expvarField extracts map[field] from an expvar JSON object as a number.
func expvarField(all map[string]json.RawMessage, name, field string) float64 {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(all[name], &m); err != nil {
		return 0
	}
	var v float64
	_ = json.Unmarshal(m[field], &v)
	return v
}
