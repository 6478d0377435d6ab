package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"macc"
	"macc/internal/bench"
	"macc/internal/farm"
	"macc/internal/machine"
	"macc/internal/rtl"
	"macc/internal/rtl/codec"
	"macc/internal/rtlgen"
	"macc/internal/telemetry"
	"macc/internal/telemetry/dtrace"
)

// farm-zipf traffic. The key universe is the corpus-cold corpus x three
// machines x two coalescing modes; the replicas' memory tiers hold about a
// third of it, so hits come from memory, disk and the peer.
const (
	farmReplicas  = 2
	farmPrograms  = corpusPrograms
	freshPrograms = 24    // outside the universe: each of their keys is requested at most once, so always a miss
	freshFrac     = 0.005 // share of requests for a fresh key, while fresh keys last
	runFrac       = 0.2   // share of /run requests; the rest are /compile
	batchFrac     = 0.3   // share of batch-priority requests; the rest are interactive
	memTierShare  = 3     // the memory tier holds 1/memTierShare of the universe's entries

	// Key popularity: P(rank k) ~ (zipfV + k)^-zipfS, so about 100 keys take
	// half the requests and no single key's size sets the mix.
	zipfS = 1.1
	zipfV = 20

	// Fixed offered rates in requests per second, and the latency limit.
	lowRPS  = 200
	highRPS = 400
	sloMS   = 50

	// The sweep bisects the offered rate sweepSteps times between the
	// highest fixed rate that meets the limit and sweepMaxRPS.
	sweepMaxRPS = 8000
	sweepSteps  = 6
)

// Latency is summarized per window of due times and the end-to-end
// figures are medians over windows, which a stall of the shared host moves
// less than it moves pooled samples. A window at highRPS holds about 1000
// requests, so its p99 has ten samples beyond it; the sweep and saturation
// phases run at higher rates and use shorter windows.
const (
	lowWindow   = time.Second
	highWindow  = 5 * time.Second / 2
	shortWindow = time.Second / 2
)

// farmModes are the maccd coalesce settings of the universe: the vpo
// baseline and loads+stores.
var farmModes = []string{"off", "both"}

// failedLatency stands in for the latency of a failed request, so a
// failure counts as missing every latency limit instead of being dropped.
const failedLatency = time.Hour

type farmKey struct{ prog, machine, mode int }

// farmRef is the local reference answer for one key.
type farmRef struct {
	rtl     [32]byte // SHA-256 of the printed RTL
	instrs  int64
	ret     int64
	cycles  int64
	memRefs int64
	encoded int64 // codec bytes of the compiled image
}

type replica struct {
	cmd       *exec.Cmd
	url       string
	debugURL  string
	log       string
	done      chan struct{}
	waitError error
}

// farmEnv is one set-up farm: references, replicas and the client.
type farmEnv struct {
	progs    []rtlgen.CorpusProgram
	machines []*machine.Machine
	refs     map[farmKey]farmRef
	keys     []farmKey // universe, in popularity order
	fresh    []farmKey
	dir      string
	replicas []*replica
	client   *farm.Client
	creg     *telemetry.Registry

	// From the warm-up answers.
	size    int64
	speedup map[string][]float64
	warmN   int
	warmBad int
}

// farmConfig is the local equivalent of maccd's configuration for a mode.
func farmConfig(m *machine.Machine, mode int) macc.Config {
	if farmModes[mode] == "off" {
		return macc.BaselineConfig(m)
	}
	return bench.NamedConfig("loads+stores", m)
}

// setupFarm computes every key's reference answer locally (through the
// ledger's traced compile when l is set), starts the replicas, and warms
// the farm with one /compile and one /run of every universe key.
func setupFarm(o opts, l *ledger) (*farmEnv, error) {
	env := &farmEnv{
		progs:    rtlgen.Corpus(o.seed, farmPrograms+freshPrograms),
		machines: machine.All(),
		refs:     make(map[farmKey]farmRef),
		speedup:  make(map[string][]float64),
	}
	var universeBytes int64
	for pi, p := range env.progs {
		for mi, m := range env.machines {
			for mode := range farmModes {
				k := farmKey{pi, mi, mode}
				ref, err := reference(p, farmConfig(m, mode), l)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", p.Name, m.Name, farmModes[mode], err)
				}
				env.refs[k] = ref
				if l != nil && pi < farmPrograms {
					l.addMemRefs(m.Name, mode, ref.memRefs)
				}
				if pi < farmPrograms {
					env.keys = append(env.keys, k)
					universeBytes += ref.encoded + 256
				} else {
					env.fresh = append(env.fresh, k)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(env.keys), func(i, j int) { env.keys[i], env.keys[j] = env.keys[j], env.keys[i] })
	rng.Shuffle(len(env.fresh), func(i, j int) { env.fresh[i], env.fresh[j] = env.fresh[j], env.fresh[i] })

	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, "farm-")
	if err != nil {
		return nil, err
	}
	env.dir = dir
	if err := env.start(o.maccd, universeBytes/memTierShare); err != nil {
		env.close()
		return nil, err
	}
	env.creg = telemetry.NewRegistry()
	urls := make([]string, len(env.replicas))
	for i, r := range env.replicas {
		urls[i] = r.url
	}
	env.client = farm.NewClient(farm.ClientOptions{Peers: urls, Seed: o.seed, Metrics: env.creg})
	env.warm()
	return env, nil
}

// reference compiles and runs one key locally, as maccd would.
func reference(p rtlgen.CorpusProgram, cfg macc.Config, l *ledger) (farmRef, error) {
	cfg.Unit = p.Name
	var prog *macc.Program
	var err error
	if l != nil {
		prog, err = l.compile(p.Src, cfg)
	} else {
		prog, err = macc.Compile(p.Src, cfg)
	}
	if err != nil {
		return farmRef{}, err
	}
	text := prog.RTL.String()
	ref := farmRef{rtl: sha256.Sum256([]byte(text)), instrs: staticInstrs(prog.RTL)}
	if l != nil {
		r, err := l.simulate(prog, p.MemBytes, p.Entry, p.Args)
		if err != nil {
			return farmRef{}, err
		}
		ref.ret, ref.cycles, ref.memRefs = r.Ret, r.Cycles, r.MemRefs()
	} else {
		s := prog.NewSim(p.MemBytes)
		r, err := s.Run(p.Entry, p.Args...)
		s.Release()
		if err != nil {
			return farmRef{}, err
		}
		ref.ret, ref.cycles, ref.memRefs = r.Ret, r.Cycles, r.MemRefs()
	}
	fp := prog.Flat
	if fp == nil {
		if fp, err = rtl.Flatten(prog.RTL); err != nil {
			return farmRef{}, err
		}
	}
	ref.encoded = int64(len(codec.EncodeProgram(fp)))
	return ref, nil
}

// freeAddrs reserves n loopback ports and releases them for the replicas.
func freeAddrs(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// start launches the replicas, each peered to the others, and waits until
// every one answers /healthz.
func (env *farmEnv) start(bin string, memBudget int64) error {
	if bin == "" {
		return errors.New("farm-zipf needs --maccd")
	}
	addrs, err := freeAddrs(2 * farmReplicas)
	if err != nil {
		return err
	}
	for i := 0; i < farmReplicas; i++ {
		var peers []string
		for j := 0; j < farmReplicas; j++ {
			if j != i {
				peers = append(peers, "http://"+addrs[j])
			}
		}
		logPath := filepath.Join(env.dir, fmt.Sprintf("replica%d.log", i))
		logf, err := os.Create(logPath)
		if err != nil {
			return err
		}
		cmd := exec.Command(bin,
			"-addr", addrs[i],
			"-debug-addr", addrs[farmReplicas+i],
			"-cache-dir", filepath.Join(env.dir, fmt.Sprintf("cache%d", i)),
			"-cache-mem", strconv.FormatInt(memBudget, 10),
			"-workers", "1",
			"-batch-slots", "4",
			"-flight", "4096",
			"-peers", strings.Join(peers, ","),
			"-metrics-out", filepath.Join(env.dir, fmt.Sprintf("metrics%d.json", i)),
		)
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.SysProcAttr = childAttr()
		err = cmd.Start()
		logf.Close()
		if err != nil {
			return fmt.Errorf("start replica: %w", err)
		}
		r := &replica{cmd: cmd, url: "http://" + addrs[i], debugURL: "http://" + addrs[farmReplicas+i],
			log: logPath, done: make(chan struct{})}
		go func() {
			r.waitError = cmd.Wait()
			close(r.done)
		}()
		env.replicas = append(env.replicas, r)
	}
	deadline := time.Now().Add(20 * time.Second)
	hc := &http.Client{Timeout: time.Second}
	for _, r := range env.replicas {
		for {
			select {
			case <-r.done:
				return fmt.Errorf("replica %s exited: %v\n%s", r.url, r.waitError, tail(r.log))
			default:
			}
			resp, err := hc.Get(r.url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %s not healthy: %v\n%s", r.url, err, tail(r.log))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// tail returns the end of a replica log for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// close stops the client and the replicas (SIGTERM, then SIGKILL after a
// grace period), waits for each to exit, and removes the farm directory.
func (env *farmEnv) close() {
	if env.client != nil {
		env.client.Close()
	}
	for _, r := range env.replicas {
		r.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, r := range env.replicas {
		select {
		case <-r.done:
		case <-time.After(10 * time.Second):
			r.cmd.Process.Kill()
			<-r.done
		}
	}
	if env.dir != "" {
		os.RemoveAll(env.dir)
	}
}

// reqSpec is one generated request.
type reqSpec struct {
	key   farmKey
	run   bool
	batch bool
}

// outcome classifies one answer.
type outcome int

const (
	okAnswer outcome = iota
	wrongAnswer
	shedAnswer  // 503: shed or queue timeout
	errorAnswer // other 5xx or 4xx
	lostAnswer  // transport error or client-side timeout
)

// send issues one request through the farm client and checks the answer
// against the key's reference. With a tracer the request is the root of a
// distributed trace whose ID is returned.
func (env *farmEnv) send(c *farm.Client, spec reqSpec, tracer *dtrace.Tracer) (outcome, string) {
	p := env.progs[spec.key.prog]
	ref := env.refs[spec.key]
	req := farm.CompileRequest{Source: p.Src, Machine: env.machines[spec.key.machine].Name, Coalesce: farmModes[spec.key.mode]}
	if spec.batch {
		req.Priority = farm.PriorityBatch
	}
	ctx := context.Background()
	var traceID string
	if tracer != nil {
		root := tracer.StartRoot("perfbench request", dtrace.KindRequest)
		defer root.End()
		ctx = dtrace.ContextWith(ctx, root.Context())
		traceID = root.TraceID()
	}
	var err error
	good := false
	if spec.run {
		var resp farm.RunResponse
		_, err = c.PostJSON(ctx, "/run", farm.RunRequest{CompileRequest: req, Call: call(p), Mem: p.MemBytes}, &resp)
		good = resp.Ret == ref.ret && resp.Cycles == ref.cycles
	} else {
		var resp farm.CompileResponse
		_, err = c.PostJSON(ctx, "/compile", req, &resp)
		good = !resp.Degraded && sha256.Sum256([]byte(resp.RTL)) == ref.rtl
	}
	var se *farm.StatusError
	switch {
	case err == nil && good:
		return okAnswer, traceID
	case err == nil:
		return wrongAnswer, traceID
	case errors.As(err, &se) && se.Code == http.StatusServiceUnavailable:
		return shedAnswer, traceID
	case errors.As(err, &se):
		return errorAnswer, traceID
	default:
		return lostAnswer, traceID
	}
}

func call(p rtlgen.CorpusProgram) string {
	args := make([]string, len(p.Args))
	for i, a := range p.Args {
		args[i] = strconv.FormatInt(a, 10)
	}
	return p.Entry + "(" + strings.Join(args, ",") + ")"
}

// warm sends one /compile and then one /run of every universe key, nproc at
// a time, checking each answer. The checked answers give the farm's code
// size and cycle speedups.
func (env *farmEnv) warm() {
	var specs []reqSpec
	for _, run := range []bool{false, true} {
		for _, k := range env.keys {
			specs = append(specs, reqSpec{key: k, run: run})
		}
	}
	outs := make([]outcome, len(specs))
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(specs) {
					return
				}
				outs[i], _ = env.send(env.client, specs[i], nil)
			}
		}()
	}
	wg.Wait()
	cycles := make(map[farmKey]int64) // from checked /run answers
	for i, spec := range specs {
		env.warmN++
		switch {
		case outs[i] != okAnswer:
			env.warmBad++
		case spec.run:
			cycles[spec.key] = env.refs[spec.key].cycles
		default:
			env.size += env.refs[spec.key].instrs
		}
	}
	for k, base := range cycles {
		if both := cycles[farmKey{k.prog, k.machine, 1}]; k.mode == 0 && base > 0 && both > 0 {
			m := machineNames[k.machine]
			env.speedup[m] = append(env.speedup[m], float64(base)/float64(both))
		}
	}
}

// schedJob is one request with its intended send time, relative to the
// start of its phase.
type schedJob struct {
	due  time.Duration
	spec reqSpec
}

// gen draws the seeded request stream.
type gen struct {
	rng       *rand.Rand
	zipf      *rand.Zipf
	env       *farmEnv
	nextFresh int
}

func newGen(env *farmEnv, seed int64) *gen {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	return &gen{rng: rng, zipf: rand.NewZipf(rng, zipfS, zipfV, uint64(len(env.keys)-1)), env: env}
}

// plan draws an open-loop Poisson schedule at rate requests per second
// for d.
func (g *gen) plan(rate float64, d time.Duration) []schedJob {
	var jobs []schedJob
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return jobs
		}
		jobs = append(jobs, schedJob{due: time.Duration(t * float64(time.Second)), spec: g.draw()})
	}
}

// draw draws one request: a Zipf-popular universe key, or now and then a
// fresh key, on /run or /compile, at batch or interactive priority.
func (g *gen) draw() reqSpec {
	spec := reqSpec{run: g.rng.Float64() < runFrac, batch: g.rng.Float64() < batchFrac}
	if g.rng.Float64() < freshFrac && g.nextFresh < len(g.env.fresh) {
		spec.key = g.env.fresh[g.nextFresh]
		g.nextFresh++
	} else {
		spec.key = g.env.keys[g.zipf.Uint64()]
	}
	return spec
}

// phaseStats is one open-loop phase's outcome.
type phaseStats struct {
	rate       float64
	window     time.Duration
	lat        samples   // from each request's due time; failures count as failedLatency
	windows    []samples // lat split by due time into windows
	lags       samples   // how late an idle connection sent a request
	backlogMax int
	lastLate   time.Duration // how late the phase's last request was sent
	outcomes   [5]int
	traceIDs   []string
}

// windowP50 and windowTail are the medians over windows of each window's
// median and tail latency, in ms; q is the tail's quantile in the last
// window.
func (ps *phaseStats) windowP50() float64 {
	var xs []float64
	for _, w := range ps.windows {
		if len(w) > 0 {
			xs = append(xs, ms(w.median()))
		}
	}
	return median(xs)
}

func (ps *phaseStats) windowTail() (float64, float64) {
	var xs []float64
	var q float64
	for _, w := range ps.windows {
		if len(w) > 0 {
			var t time.Duration
			t, q = w.tail()
			xs = append(xs, ms(t))
		}
	}
	return median(xs), q
}

// describe renders the pooled and windowed latency of the phase.
func (ps *phaseStats) describe() string {
	t, q := ps.windowTail()
	return fmt.Sprintf("%s; over %d windows of %v: median p50 %.4f ms, median p%.4g %.4f ms",
		ps.lat.describe(), len(ps.windows), ps.window, ps.windowP50(), 100*q, t)
}

func (ps *phaseStats) failed() int { return len(ps.lat) - ps.outcomes[okAnswer] }

// runPhase sends jobs open-loop over at most nproc connections: each
// request leaves at its due time if a connection is free, and otherwise
// waits in the generator's backlog, and its latency counts from its due
// time either way. With a tracer, c must be a client tracing through it.
func (env *farmEnv) runPhase(c *farm.Client, rate float64, window time.Duration, jobs []schedJob, tracer *dtrace.Tracer) phaseStats {
	ps := phaseStats{rate: rate, window: window}
	if len(jobs) > 0 {
		ps.windows = make([]samples, int(jobs[len(jobs)-1].due/window)+1)
	}
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				due := start.Add(j.due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					mu.Lock()
					ps.lags = append(ps.lags, time.Since(due))
					mu.Unlock()
				} else {
					now := time.Since(start)
					backlog := sort.Search(len(jobs), func(k int) bool { return jobs[k].due > now }) - i
					mu.Lock()
					if backlog > ps.backlogMax {
						ps.backlogMax = backlog
					}
					mu.Unlock()
				}
				if i == len(jobs)-1 {
					ps.lastLate = time.Since(due)
				}
				out, id := env.send(c, j.spec, tracer)
				lat := time.Since(due)
				if out != okAnswer {
					lat = failedLatency
				}
				mu.Lock()
				ps.lat = append(ps.lat, lat)
				wi := int(j.due / window)
				ps.windows[wi] = append(ps.windows[wi], lat)
				ps.outcomes[out]++
				if id != "" {
					ps.traceIDs = append(ps.traceIDs, id)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ps
}

// saturate keeps every connection busy with back-to-back requests (a
// closed loop) for d and returns the phase's outcomes, with windows of
// length w holding the latencies of the requests that completed in them.
// The completions per second of each window are the farm's saturation
// throughput.
func (env *farmEnv) saturate(g *gen, d, w time.Duration) phaseStats {
	ps := phaseStats{window: w, windows: make([]samples, int(d/w))}
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				spec := g.draw()
				mu.Unlock()
				t0 := time.Now()
				if t0.Sub(start) >= d {
					return
				}
				out, _ := env.send(env.client, spec, nil)
				lat := time.Since(t0)
				if out != okAnswer {
					lat = failedLatency
				}
				mu.Lock()
				ps.lat = append(ps.lat, lat)
				ps.outcomes[out]++
				if wi := int(time.Since(start) / w); wi < len(ps.windows) {
					ps.windows[wi] = append(ps.windows[wi], lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ps
}

// within counts the requests answered correctly within limitMS of their due
// time.
func (ps *phaseStats) within(limitMS float64) int {
	n := 0
	for _, d := range ps.lat {
		if ms(d) <= limitMS {
			n++
		}
	}
	return n
}

// windowRate is the median over windows of completed requests per second.
func (ps *phaseStats) windowRate() float64 {
	xs := make([]float64, len(ps.windows))
	for i, w := range ps.windows {
		xs[i] = float64(len(w)) / ps.window.Seconds()
	}
	return median(xs)
}

// meetsSLO reports whether a phase kept its windowed tail latency within
// the limit, failed nothing, and sent its last request within the limit of
// its due time (no growing backlog).
func (ps *phaseStats) meetsSLO() bool {
	t, _ := ps.windowTail()
	return t <= sloMS && ps.failed() == 0 && ms(ps.lastLate) <= sloMS
}

// sweep finds the highest offered rate that meets the latency limit by
// bisection over the rate in geometric steps of duration step, starting
// from the fixed-rate phases' verdicts. It returns the highest passing
// rate (0 if even lowRPS failed) and the steps run.
func (env *farmEnv) sweep(g *gen, low, high phaseStats, step time.Duration) (float64, []phaseStats) {
	var steps []phaseStats
	lo, hi := 0.0, float64(sweepMaxRPS)
	switch {
	case high.meetsSLO():
		lo = highRPS
	case low.meetsSLO():
		lo, hi = lowRPS, highRPS
	default:
		return 0, nil
	}
	for i := 0; i < sweepSteps; i++ {
		rate := math.Sqrt(lo * hi)
		ps := env.runPhase(env.client, rate, shortWindow, g.plan(rate, step), nil)
		steps = append(steps, ps)
		if ps.meetsSLO() {
			lo = rate
		} else {
			hi = rate
		}
	}
	return lo, steps
}

// metricsSnapshot is the part of a replica's /metrics answer used here.
type metricsSnapshot struct {
	Counters map[string]int64 `json:"counters"`
}

// scrape sums the named counters over every replica's /metrics.
func (env *farmEnv) scrape() (map[string]int64, error) {
	sum := make(map[string]int64)
	hc := &http.Client{Timeout: 5 * time.Second}
	for _, r := range env.replicas {
		resp, err := hc.Get(r.url + "/metrics")
		if err != nil {
			return nil, err
		}
		var snap metricsSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("metrics %s: %w", r.url, err)
		}
		for k, v := range snap.Counters {
			sum[k] += v
		}
	}
	return sum, nil
}

// mallocs sums the replicas' cumulative heap allocation counts, read from
// the heap profile's runtime.MemStats trailer on the debug listener.
func (env *farmEnv) mallocs() (int64, error) {
	var total int64
	hc := &http.Client{Timeout: 5 * time.Second}
	for _, r := range env.replicas {
		resp, err := hc.Get(r.debugURL + "/debug/pprof/heap?debug=1")
		if err != nil {
			return 0, err
		}
		n, err := parseMallocs(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("heap profile %s: %w", r.debugURL, err)
		}
		total += n
	}
	return total, nil
}

func parseMallocs(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# Mallocs = "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no Mallocs line")
}

// countPhase adds a phase's requests and failures to res.
func countPhase(res *result, ps phaseStats) {
	res.attempted += int64(len(ps.lat))
	res.failed += int64(ps.failed())
	if n := ps.failed(); n > 0 {
		res.logf("FAIL %.0f rps: %d wrong, %d shed, %d errors, %d lost of %d", ps.rate,
			ps.outcomes[wrongAnswer], ps.outcomes[shedAnswer], ps.outcomes[errorAnswer], ps.outcomes[lostAnswer], len(ps.lat))
	}
}

func runFarmZipf(o opts) (*result, error) {
	res := newResult()
	if !o.trace {
		env, setupS, err := medianSetup(setupRepeats, func() (*farmEnv, error) { return setupFarm(o, nil) },
			func(e *farmEnv) { e.close() })
		if err != nil {
			return nil, err
		}
		defer env.close()
		return res, env.measure(o, setupS, res)
	}
	l := newLedger()
	env, err := setupFarm(o, l)
	if err != nil {
		return nil, err
	}
	defer env.close()
	return res, env.measureTraced(o, l, res)
}

func (env *farmEnv) logSetup(o opts, res *result) {
	res.logf("farm-zipf: %d replicas (-workers 1), %d-key universe (%d corpus programs x %d machines x {off, both}), zipf s=%.2g v=%d, %.0f%% /run, %.0f%% batch, %.1f%% fresh keys, %d connections",
		len(env.replicas), len(env.keys), farmPrograms, len(env.machines), zipfS, zipfV, 100*runFrac, 100*batchFrac, 100*freshFrac, runtime.NumCPU())
	res.attempted += int64(env.warmN)
	res.failed += int64(env.warmBad)
	if env.warmBad > 0 {
		res.logf("FAIL warm-up: %d of %d answers failed", env.warmBad, env.warmN)
	}
}

// windows is share of seconds in whole windows of length w, at least one.
func windows(seconds, share float64, w time.Duration) time.Duration {
	return w * time.Duration(max(1, int(seconds*share/w.Seconds()+0.5)))
}

// measure runs the untraced phases: the low rate, the high rate, the sweep
// and the saturation phase, in about 0.45, 0.25, 0.15 and 0.15 of the
// run's seconds. Saturation comes last, when the sweep's rates near
// capacity have brought the replicas to their loaded steady state.
func (env *farmEnv) measure(o opts, setupS float64, res *result) error {
	env.logSetup(o, res)
	g := newGen(env, o.seed)
	m0, err := env.mallocs()
	if err != nil {
		return err
	}
	c0, err := env.scrape()
	if err != nil {
		return err
	}
	highDur := windows(o.seconds, 0.25, highWindow)
	low := env.runPhase(env.client, lowRPS, lowWindow, g.plan(lowRPS, windows(o.seconds, 0.45, lowWindow)), nil)
	high := env.runPhase(env.client, highRPS, highWindow, g.plan(highRPS, highDur), nil)
	best, steps := env.sweep(g, low, high, windows(o.seconds, 0.15/sweepSteps, shortWindow))
	sat := env.saturate(g, windows(o.seconds, 0.15, shortWindow), shortWindow)
	m1, err := env.mallocs()
	if err != nil {
		return err
	}
	c1, err := env.scrape()
	if err != nil {
		return err
	}
	for _, ps := range append([]phaseStats{low, high, sat}, steps...) {
		countPhase(res, ps)
	}
	res.set("setup_s", setupS)
	res.set("latency_ms_p50", low.windowP50())
	// Goodput: requests answered correctly within the latency limit per
	// second of the high-rate phase. It falls when the farm can no longer
	// serve highRPS within the limit; the saturation rate and the sweep,
	// printed below, measure capacity but move too much from run to run on
	// a shared host to be gated.
	res.set("throughput_per_s", float64(high.within(sloMS))/highDur.Seconds())
	// Per request the replicas served, hedge legs included, so the client's
	// hedging does not move it.
	res.set("allocs_per_op", frac(float64(m1-m0), float64(c1["maccd.requests"]-c0["maccd.requests"])))
	res.set("code_size_instrs", float64(env.size))
	for _, m := range machineNames {
		res.set("cycles_speedup."+m, geomean(env.speedup[m]))
	}
	res.logf("req_ms low  (%d rps): %s", lowRPS, low.describe())
	res.logf("req_ms high (%d rps): %s", highRPS, high.describe())
	res.logf("saturation (closed loop, %d connections): median %.1f requests/s over %d windows of %v; latency %s",
		runtime.NumCPU(), sat.windowRate(), len(sat.windows), sat.window, sat.lat.describe())
	res.logf("latency_ms_p50 is the low rate's windowed p50 (req_ms_p50.low), throughput_per_s the high rate's goodput (%d of %d requests within %d ms)",
		high.within(sloMS), len(high.lat), sloMS)
	for _, ps := range steps {
		t, q := ps.windowTail()
		res.logf("sweep %.1f rps: median p%.4g %.4f ms over %d windows (n=%d), backlog max %d, last request %.3f ms late, %d failed, meets limit: %t",
			ps.rate, 100*q, t, len(ps.windows), len(ps.lat), ps.backlogMax, ms(ps.lastLate), ps.failed(), ps.meetsSLO())
	}
	res.logf("max_rps_within_slo = %.1f rps (limit: windowed tail <= %d ms, nothing failed, no growing backlog)", best, sloMS)
	return nil
}

// measureTraced runs the low rate untraced, then again with every request
// traced, and folds the replicas' spans and counters into the ledger.
func (env *farmEnv) measureTraced(o opts, l *ledger, res *result) error {
	env.logSetup(o, res)
	g := newGen(env, o.seed)
	half := windows(o.seconds, 0.5, lowWindow)
	c0, err := env.scrape()
	if err != nil {
		return err
	}
	// Client counters over the measured phases: the warm-up's are excluded.
	trips := func(c *farm.Client) float64 {
		c.PublishStats()
		return env.creg.Snapshot().Gauges["farm.breaker_trips"]
	}
	retries0, hedges0, trips0 := env.creg.CounterValue("farm.retries"), env.creg.CounterValue("farm.hedges"), trips(env.client)
	untraced := env.runPhase(env.client, lowRPS, lowWindow, g.plan(lowRPS, half), nil)
	// The traced phase's client records a span per call and attempt and
	// sends the trace context, so the replicas' spans join each request's
	// trace. It shares the untraced client's metrics registry.
	tracer := dtrace.New("perfbench", 1<<14)
	tc := farm.NewClient(farm.ClientOptions{Peers: env.client.PeerURLs(), Seed: o.seed, Metrics: env.creg, Tracer: tracer})
	defer tc.Close()
	traced := env.runPhase(tc, lowRPS, lowWindow, g.plan(lowRPS, half), tracer)
	c1, err := env.scrape()
	if err != nil {
		return err
	}
	countPhase(res, untraced)
	countPhase(res, traced)

	l.report(res)
	// The compile-path layers above describe the farm's key universe,
	// compiled by the benchmark itself; the ones below are the farm's own.
	d := func(name string) float64 { return float64(c1[name] - c0[name]) }
	hits := d("ccache.mem_hits") + d("ccache.disk_hits") + d("ccache.peer_hits")
	res.set("ccache.mem_hits", d("ccache.mem_hits"))
	res.set("ccache.disk_hits", d("ccache.disk_hits"))
	res.set("ccache.peer_hits", d("ccache.peer_hits"))
	res.set("ccache.misses", d("ccache.misses"))
	res.set("ccache.hit_ratio", frac(hits, hits+d("ccache.misses")))
	res.set("ccache.evictions", d("ccache.evictions"))
	res.set("ccache.dedup_waits", d("ccache.dedup_waiters"))
	res.set("maccd.shed", d("maccd.shed_batch")+d("maccd.shed_draining")+d("maccd.queue_timeouts"))
	res.set("maccd.http_5xx", d("maccd.timeouts")+d("maccd.panics"))
	res.set("farm.retries", float64(env.creg.CounterValue("farm.retries")-retries0))
	res.set("farm.hedges", float64(env.creg.CounterValue("farm.hedges")-hedges0))
	res.set("farm.breaker_trips", trips(env.client)-trips0+trips(tc))
	lags := append(append(samples(nil), untraced.lags...), traced.lags...)
	lag, _ := lags.tail()
	res.set("gen.lag_ms_p99", ms(lag))
	res.set("gen.backlog_max", float64(max(untraced.backlogMax, traced.backlogMax)))
	base := untraced.windowP50()
	res.set("trace.overhead_frac", frac(traced.windowP50()-base, base))
	res.logf("req_ms low untraced: %s", untraced.describe())
	res.logf("req_ms low traced:   %s", traced.describe())

	spans, fetched := env.fetchSpans(traced.traceIDs)
	var ingress, cache, compute samples
	children := make(map[string]int64)
	for _, sp := range spans {
		if sp.Parent != "" {
			children[sp.Parent] += sp.Dur
		}
	}
	for _, sp := range spans {
		switch sp.Kind {
		case dtrace.KindIngress:
			ingress = append(ingress, time.Duration(sp.Dur-children[sp.ID]))
		case dtrace.KindCache:
			cache = append(cache, time.Duration(sp.Dur))
		case dtrace.KindCompute:
			compute = append(compute, time.Duration(sp.Dur))
		}
	}
	ip99, _ := ingress.tail()
	cp99, _ := compute.tail()
	res.set("ingress.self_ms_p50", ms(ingress.median()))
	res.set("ingress.self_ms_p99", ms(ip99))
	res.set("cache.ms_p50", ms(cache.median()))
	res.set("compute.ms_p50", ms(compute.median()))
	res.set("compute.ms_p99", ms(cp99))
	res.logf("spans from %d of %d traced requests: ingress self %s; cache %s; compute %s",
		fetched, len(traced.traceIDs), ingress.describe(), cache.describe(), compute.describe())
	return nil
}

// maxTraceFetches caps the traces pulled back after the traced phase.
const maxTraceFetches = 600

// fetchSpans pulls the assembled span set of up to maxTraceFetches traces,
// evenly spaced over ids, from the first replica (which merges its
// peers' spans).
func (env *farmEnv) fetchSpans(ids []string) ([]dtrace.Span, int) {
	stride := 1
	if len(ids) > maxTraceFetches {
		stride = int(math.Ceil(float64(len(ids)) / maxTraceFetches))
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	var out []dtrace.Span
	fetched := 0
	for i := 0; i < len(ids); i += stride {
		resp, err := hc.Get(env.replicas[0].url + farm.DebugTracePrefix + ids[i] + "?format=spans")
		if err != nil {
			continue
		}
		var dump farm.TraceDump
		err = json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&dump)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK {
			out = append(out, dump.Spans...)
			fetched++
		}
	}
	return out, fetched
}
