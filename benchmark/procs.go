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
	"sync"
	"syscall"
	"time"
)

// harness owns everything one invocation creates inside the checkout:
// built binaries, scratch directories and child processes. Nothing is read
// or written outside root.
type harness struct {
	root     string // repository checkout (holds go.mod and cmd/)
	buildDir string // root/.bench_build: binaries, go cache, scratch, output
	outDir   string
	tmpDir   string // per-invocation scratch, removed on exit
	serveBin string
	buildS   float64

	ctl *http.Client // control-plane requests (healthz, metrics); never load

	mu    sync.Mutex
	procs map[*proc]bool
}

// proc is one richnote-serve child in its own process group.
type proc struct {
	cmd     *exec.Cmd
	pid     int
	started time.Time
}

func newHarness(outDir string) (*harness, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	// `go run -C benchmark` leaves the process in benchmark/; the checkout
	// root is the nearest parent holding the service's main package.
	root := wd
	for {
		if _, err := os.Stat(filepath.Join(root, "cmd", "richnote-serve", "main.go")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no cmd/richnote-serve above %s: the benchmark runs from a checkout of the repository", wd)
		}
		root = parent
	}
	h := &harness{
		root:     root,
		buildDir: filepath.Join(root, ".bench_build"),
		procs:    make(map[*proc]bool),
		ctl:      &http.Client{Timeout: 10 * time.Second},
	}
	h.outDir = outDir
	if h.outDir == "" {
		h.outDir = filepath.Join(h.buildDir, "out")
	}
	for _, d := range []string{h.buildDir, h.outDir, filepath.Join(h.buildDir, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	h.tmpDir, err = os.MkdirTemp(filepath.Join(h.buildDir, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	return h, nil
}

// goBuild compiles pkg (relative to dir) into the build directory. The go
// cache lives inside the checkout too, so a run touches nothing outside it.
func (h *harness) goBuild(dir, pkg, out string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(h.buildDir, "gocache"), "GOFLAGS=")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
	}
	return nil
}

func (h *harness) buildServe() error {
	start := time.Now()
	h.serveBin = filepath.Join(h.buildDir, "richnote-serve")
	err := h.goBuild(h.root, "./cmd/richnote-serve", h.serveBin)
	h.buildS = time.Since(start).Seconds()
	return err
}

// buildLayers compiles the in-process layer program. It is a separate
// binary so that API drift in internal/ breaks only the traced run, never
// the end-to-end numbers later changes are judged by.
func (h *harness) buildLayers() (string, error) {
	out := filepath.Join(h.buildDir, "layers")
	return out, h.goBuild(filepath.Join(h.root, "benchmark"), "./layers", out)
}

// freeAddr asks the kernel for an unused loopback port. The binaries print
// the flag they were given, not the bound address, so the harness picks.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func (h *harness) start(name string, args ...string) (*proc, error) {
	logPath := filepath.Join(h.tmpDir, fmt.Sprintf("%s-%d.log", name, time.Now().UnixNano()))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(h.serveBin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	p := &proc{cmd: cmd, started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p.pid = cmd.Process.Pid
	h.mu.Lock()
	h.procs[p] = true
	h.mu.Unlock()
	return p, nil
}

// kill sends SIGKILL to the child's process group and reaps it.
func (h *harness) kill(p *proc) {
	h.mu.Lock()
	live := h.procs[p]
	delete(h.procs, p)
	h.mu.Unlock()
	if !live {
		return
	}
	_ = syscall.Kill(-p.pid, syscall.SIGKILL) // already gone is fine
	_ = p.cmd.Wait()                          // exit status of a killed child carries nothing
}

func (h *harness) killAll() {
	h.mu.Lock()
	ps := make([]*proc, 0, len(h.procs))
	for p := range h.procs {
		ps = append(ps, p)
	}
	h.mu.Unlock()
	for _, p := range ps {
		h.kill(p)
	}
}

// close stops every child and removes the scratch directory. When the run
// failed, child logs are kept under <out>/logs first.
func (h *harness) close(failed bool) {
	h.killAll()
	if failed {
		dst := filepath.Join(h.outDir, "logs")
		if err := os.MkdirAll(dst, 0o755); err == nil {
			logs, _ := filepath.Glob(filepath.Join(h.tmpDir, "*.log"))
			for _, l := range logs {
				if data, err := os.ReadFile(l); err == nil {
					_ = os.WriteFile(filepath.Join(dst, filepath.Base(l)), data, 0o644)
				}
			}
			fmt.Fprintf(os.Stderr, "benchmark: child logs saved under %s\n", dst)
		}
	}
	_ = os.RemoveAll(h.tmpDir)
}

func (h *harness) get(url string) (int, []byte, error) {
	resp, err := h.ctl.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// waitHealthy polls /healthz every 5 ms until ok accepts the body, and
// returns when that happened.
func (h *harness) waitHealthy(addr string, timeout time.Duration, ok func(body []byte) bool) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		status, body, err := h.get("http://" + addr + "/healthz")
		if err == nil && status == http.StatusOK && (ok == nil || ok(body)) {
			return time.Now(), nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("%s/healthz not ready after %s (status %d, err %v, body %.200s)", addr, timeout, status, err, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// health is what the harness reads of the standalone and router /healthz
// bodies.
type health struct {
	Rounds           []int `json:"rounds"`
	UnassignedShards []int `json:"unassigned_shards"`
	Nodes            []struct {
		Name        string `json:"name"`
		Up          bool   `json:"up"`
		OwnedShards []int  `json:"owned_shards"`
		Rounds      []int  `json:"rounds"`
	} `json:"nodes"`
}

func parseHealth(body []byte) (health, bool) {
	var hr health
	return hr, json.Unmarshal(body, &hr) == nil
}

// totalRounds sums completed rounds over every shard the body reports.
func (hr health) totalRounds() int {
	n := 0
	for _, r := range hr.Rounds {
		n += r
	}
	for _, nd := range hr.Nodes {
		for _, r := range nd.Rounds {
			n += r
		}
	}
	return n
}

// owned counts shards owned by live nodes (router body only).
func (hr health) owned(name string) int {
	n := 0
	for _, nd := range hr.Nodes {
		if nd.Up && (name == "" || nd.Name == name) {
			n += len(nd.OwnedShards)
		}
	}
	return n
}

// procUsage is what /proc says about one child right now.
type procUsage struct {
	cpuS       float64 // utime+stime
	hwmKB      float64 // VmHWM
	writeBytes float64 // /proc/<pid>/io write_bytes: bytes sent to the block layer
}

const clockTick = 100 // USER_HZ; fixed at 100 on every Linux ABI Go supports

func readUsage(pid int) (procUsage, error) {
	var u procUsage
	base := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(base + "/stat")
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, so 12 and 13 after ") ".
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return u, fmt.Errorf("short %s/stat", base)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	u.cpuS = (ut + st) / clockTick
	u.hwmKB = procField(base+"/status", "VmHWM:")
	u.writeBytes = procField(base+"/io", "write_bytes:")
	return u, nil
}

// procField returns the first number after key in a "key: value" proc
// file, or 0 when the file or key is unreadable (io needs same-uid access).
func procField(path, key string) float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums file sizes under dir whose names end in suffix ("" = all).
func dirBytes(dir, suffix string) float64 {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !e.IsDir() && strings.HasSuffix(e.Name(), suffix) {
			total += info.Size()
		}
	}
	return float64(total)
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
