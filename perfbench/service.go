package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"edcache/internal/edcached"
)

// warmRepeats is how often a service-warm round submits each spec of
// the mix, so a round is long against a server start and warm latency
// gets enough samples for a tail.
const warmRepeats = 40

// serviceMix is the job mix of one round, longest first so the
// closed-loop clients start the long job before the short ones:
// corpus (72 points over several shards), func-corr (faults + ECC)
// and headline (replay).
var serviceMix = []string{"corpus", "func-corr", "headline"}

// server is one edcached process under test.
type server struct {
	cmd   *exec.Cmd
	base  string        // http://host:port
	ready time.Duration // process start until the first 200 from /readyz
	log   *os.File
	// Filled by stop.
	cpu    time.Duration
	maxRSS float64 // MB
}

// addrWatch is the server's stdout: it copies lines to the log and
// hands the announced listen address to startServer.
type addrWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	log  io.Writer
	addr chan string // receives the address once
	sent bool
}

func (w *addrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.log.Write(p)
	if w.sent {
		return len(p), nil
	}
	w.buf.Write(p)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil { // a partial line: keep it for the next write
			w.buf.WriteString(line)
			break
		}
		if a, ok := strings.CutPrefix(strings.TrimSpace(line), "edcached: listening on "); ok {
			w.addr <- a
			w.sent = true
			break
		}
	}
	return len(p), nil
}

// startServer starts edcached over dataDir and waits until /readyz
// answers 200; ready is measured from process start.
func startServer(ctx context.Context, cfg config, dataDir string, hc *http.Client) (*server, error) {
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	watch := &addrWatch{log: logf, addr: make(chan string, 1)}
	cmd := exec.Command(filepath.Join(cfg.bin, "edcached"),
		"-data", dataDir, "-listen", "127.0.0.1:0", "-workers", strconv.Itoa(cfg.workers))
	cmd.Stdout = watch
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, log: logf}
	fail := func(err error) (*server, error) {
		s.kill()
		return nil, fmt.Errorf("edcached start (log %s): %w", logf.Name(), err)
	}
	select {
	case addr := <-watch.addr:
		s.base = "http://" + addr
	case <-time.After(20 * time.Second):
		return fail(errors.New("no listen address within 20s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	for {
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(start)
				return s, nil
			}
		}
		if time.Since(start) > 20*time.Second {
			return fail(fmt.Errorf("not ready within 20s (last error %v)", err))
		}
		if ctx.Err() != nil {
			return fail(ctx.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server with SIGTERM (SIGKILL after 20s), waits for
// it, and records its total CPU time and peak RSS.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		err = fmt.Errorf("edcached did not drain within 20s: %v", <-done)
	}
	s.log.Close()
	if ps := s.cmd.ProcessState; ps != nil {
		s.cpu = ps.UserTime() + ps.SystemTime()
		s.maxRSS = maxRSSMB(ps.SysUsage())
	}
	return err
}

// kill ends the server at once (error paths only).
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.log.Close()
}

// jobRecord is one job as a client saw it.
type jobRecord struct {
	spec   edcached.JobSpec
	cold   bool
	total  time.Duration // submit until the result body is read
	submit time.Duration // POST /jobs
	queue  time.Duration // submit answered until the `running` event
	run    time.Duration // `running` until `done`
	result time.Duration // GET /result
	leases int           // shard lease grants seen on the event stream
	shards int           // distinct shards leased
	non2xx int
	body   []byte
	err    error
}

// client drives the service over HTTP.
type client struct {
	base   string
	hc     *http.Client
	bodies *bodies
}

// bodies interns result bodies. A run keeps every job's body for the
// gate, and warm rounds return the same bytes thousands of times; one
// copy of each keeps the harness small. That matters beyond tidiness: a
// child's peak RSS as rusage reports it is at least the harness's own
// peak at the time of the spawn, because the child runs in the
// harness's address space until it execs.
type bodies struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte][]byte
}

func (b *bodies) intern(p []byte) []byte {
	k := sha256.Sum256(p)
	b.mu.Lock()
	defer b.mu.Unlock()
	if q, ok := b.m[k]; ok {
		return q
	}
	if b.m == nil {
		b.m = map[[sha256.Size]byte][]byte{}
	}
	b.m[k] = p
	return p
}

// job submits one spec, follows its event stream to a terminal state
// and fetches the JSON result. With a tracer it records the job's
// client-side spans under parent.
func (c *client) job(ctx context.Context, spec edcached.JobSpec, tr *tracer, parent int) (rec jobRecord) {
	rec.spec = spec
	t0 := time.Now()
	jobSpan := tr.begin(parent, "edcached.job")
	defer func() {
		rec.total = time.Since(t0)
		tr.end(jobSpan)
	}()

	body, err := json.Marshal(spec)
	if err != nil {
		rec.err = err
		return rec
	}
	sp := tr.begin(jobSpan, "edcached.submit")
	var st edcached.JobStatus
	code, err := c.do(ctx, http.MethodPost, "/jobs", bytes.NewReader(body), func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	})
	tr.end(sp)
	t1 := time.Now()
	rec.submit = t1.Sub(t0)
	if err = c.status(&rec, code, err, http.StatusAccepted); err != nil {
		rec.err = fmt.Errorf("submit %s: %w", spec.Experiment, err)
		return rec
	}

	var tRunning, tDone time.Time
	shards := map[int]bool{}
	code, err = c.do(ctx, http.MethodGet, "/jobs/"+st.ID+"/events", nil, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var ev edcached.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return fmt.Errorf("bad event %q: %w", sc.Text(), err)
			}
			switch {
			case ev.Type == "shard" && ev.What == "leased":
				rec.leases++
				shards[ev.Shard] = true
			case ev.Type == "state" && ev.State == edcached.JobRunning && tRunning.IsZero():
				tRunning = time.Now()
			case ev.Type == "state" && ev.State.Terminal():
				if ev.State != edcached.JobDone {
					return fmt.Errorf("job %s ended %s: %s", st.ID, ev.State, ev.Error)
				}
				tDone = time.Now()
				return nil
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("event stream of job %s ended before a terminal state", st.ID)
	})
	if err = c.status(&rec, code, err, http.StatusOK); err != nil {
		rec.err = fmt.Errorf("events %s: %w", spec.Experiment, err)
		return rec
	}
	if tRunning.IsZero() { // a job can finish before the stream shows `running`
		tRunning = t1
	}
	rec.shards = len(shards)
	rec.queue, rec.run = tRunning.Sub(t1), tDone.Sub(tRunning)
	tr.record(jobSpan, "edcached.queue", t1, tRunning)
	tr.record(jobSpan, "edcached.run", tRunning, tDone)

	sp = tr.begin(jobSpan, "edcached.result")
	t2 := time.Now()
	code, err = c.do(ctx, http.MethodGet, "/jobs/"+st.ID+"/result?format=json", nil, func(r io.Reader) error {
		b, rerr := io.ReadAll(r)
		rec.body = c.bodies.intern(b)
		return rerr
	})
	rec.result = time.Since(t2)
	tr.end(sp)
	if err = c.status(&rec, code, err, http.StatusOK); err != nil {
		rec.err = fmt.Errorf("result %s: %w", spec.Experiment, err)
	}
	return rec
}

// do issues one request and hands a 2xx body to read; it returns the
// status code.
func (c *client) do(ctx context.Context, method, path string, body io.Reader, read func(io.Reader) error) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	err = read(resp.Body)
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// status counts a non-2xx answer and checks the expected code.
func (c *client) status(rec *jobRecord, code int, err error, want int) error {
	if code != 0 && code/100 != 2 {
		rec.non2xx++
	}
	if err == nil && code != want {
		err = fmt.Errorf("HTTP %d, want %d", code, want)
	}
	return err
}

// session runs rounds of the job mix from closed-loop clients.
type session struct {
	cfg     config
	hc      *http.Client
	clients int
	dir     string // per-round server data directories live here
	specs   []edcached.JobSpec
	bodies  bodies
	// warmStore is a store directory holding every point of the mix;
	// when set, each server starts over it, so every job is answered
	// from store.Get hits.
	warmStore string
}

// roundStats is one round: a fresh server, one phase of jobs, stopped.
type roundStats struct {
	wall   time.Duration // first submit until the last result
	cpu    time.Duration // server CPU: the whole process, which serves one round
	maxRSS float64       // server peak RSS, MB
	jobs   []jobRecord
}

// mixSpecs is the job mix at the workload seed's derived job seed. Every
// round submits the same specs, so the reference bytes are made once
// per run.
func mixSpecs(cfg config) []edcached.JobSpec {
	seed := deriveSeed(cfg.seed, "service", 0)
	var opts edcached.GridOptions
	if cfg.tiny {
		opts = edcached.GridOptions{Instructions: tinyInstructions, Trials: 200}
	}
	out := make([]edcached.JobSpec, len(serviceMix))
	for i, e := range serviceMix {
		out[i] = edcached.JobSpec{Experiment: e, Seed: seed, Options: opts}
	}
	return out
}

// dataDir makes a server data directory named name: empty, or with the
// warm store linked in as its store. Warm rounds only read that store:
// every point they ask for is in it.
func (s *session) dataDir(name string) (string, error) {
	dir := filepath.Join(s.dir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if s.warmStore == "" {
		return dir, nil
	}
	return dir, os.Symlink(s.warmStore, filepath.Join(dir, "store"))
}

// round starts a server over a fresh data directory, runs specs from the
// closed-loop clients, and stops the server. Over an empty directory
// (service-cold) every point is computed and written with store.Put;
// over the warm store (service-warm) every point is a store.Get hit. A server per round keeps memory bounded: edcached
// holds every finished job's experiment, generated workload slabs
// included, until it exits.
func (s *session) round(ctx context.Context, r int, specs []edcached.JobSpec, tr *tracer, parent int) (roundStats, error) {
	var rs roundStats
	dir, err := s.dataDir(fmt.Sprintf("round%d", r))
	defer os.RemoveAll(dir)
	if err != nil {
		return rs, err
	}
	srv, err := startServer(ctx, s.cfg, dir, s.hc)
	if err != nil {
		return rs, err
	}
	c := &client{base: srv.base, hc: s.hc, bodies: &s.bodies}
	start := time.Now()
	rs.jobs = s.closedLoop(ctx, c, specs, s.warmStore == "", tr, parent)
	rs.wall = time.Since(start)
	if err := srv.stop(); err != nil {
		return rs, err
	}
	s.hc.CloseIdleConnections()
	rs.cpu, rs.maxRSS = srv.cpu, srv.maxRSS
	return rs, ctx.Err()
}

// warmSpecs is a service-warm round: every spec of the mix warmRepeats
// times.
func (s *session) warmSpecs() []edcached.JobSpec {
	var specs []edcached.JobSpec
	for i := 0; i < warmRepeats; i++ {
		specs = append(specs, s.specs...)
	}
	return specs
}

// warmUp runs the mix once on a server over an empty data directory and
// keeps its store as the warm store every later server starts over. It
// returns the warm-up jobs, which the gate checks like the others.
func (s *session) warmUp(ctx context.Context) ([]jobRecord, error) {
	dir, err := s.dataDir("warm")
	if err != nil {
		return nil, err
	}
	srv, err := startServer(ctx, s.cfg, dir, s.hc)
	if err != nil {
		return nil, err
	}
	jobs := s.closedLoop(ctx, &client{base: srv.base, hc: s.hc, bodies: &s.bodies}, s.specs, true, nil, 0)
	if err := srv.stop(); err != nil {
		return nil, err
	}
	s.hc.CloseIdleConnections()
	// Absolute, so the links dataDir makes resolve from any directory.
	s.warmStore, err = filepath.Abs(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	return jobs, ctx.Err()
}

// setupTime starts a server over the workload's data directory (empty,
// or over the warm store), stops it, and returns its time from
// process start to ready.
func (s *session) setupTime(ctx context.Context, i int) (time.Duration, error) {
	dir, err := s.dataDir(fmt.Sprintf("setup%d", i))
	defer os.RemoveAll(dir)
	if err != nil {
		return 0, err
	}
	srv, err := startServer(ctx, s.cfg, dir, s.hc)
	if err != nil {
		return 0, err
	}
	err = srv.stop()
	s.hc.CloseIdleConnections()
	return srv.ready, err
}

// closedLoop runs the specs through s.clients closed-loop clients:
// each sends its next job only after the previous one's result.
func (s *session) closedLoop(ctx context.Context, c *client, specs []edcached.JobSpec, cold bool, tr *tracer, parent int) []jobRecord {
	next := make(chan int, len(specs)) // holds every index; closed before the clients start
	for i := range specs {
		next <- i
	}
	close(next)
	recs := make([]jobRecord, len(specs))
	var wg sync.WaitGroup
	for k := 0; k < s.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				recs[i] = c.job(ctx, specs[i], tr, parent)
				recs[i].cold = cold
			}
		}()
	}
	wg.Wait()
	return recs
}

// references checks every job's result bytes against a solo
// `experiments -run X -seed S -format json` of its spec, computed once
// per spec after the timed loop.
func references(ctx context.Context, cfg config, jobs []jobRecord, g *gate) error {
	refs := map[edcached.JobSpec][]byte{}
	for _, j := range jobs {
		if j.err != nil {
			g.fail(fmt.Sprintf("%s job (seed %d)", j.spec.Experiment, j.spec.Seed), j.err)
			continue
		}
		ref, ok := refs[j.spec]
		if !ok {
			args := []string{"-run", j.spec.Experiment, "-seed", strconv.FormatInt(j.spec.Seed, 10), "-format", "json"}
			if j.spec.Options.Instructions > 0 {
				args = append(args, "-instructions", strconv.Itoa(j.spec.Options.Instructions))
			}
			if j.spec.Options.Trials > 0 {
				args = append(args, "-trials", strconv.Itoa(j.spec.Options.Trials))
			}
			r, err := runProc(ctx, filepath.Join(cfg.bin, "experiments"), args...)
			if err != nil {
				return fmt.Errorf("reference for %s: %w", j.spec.Experiment, err)
			}
			ref = r.out
			refs[j.spec] = ref
		}
		g.check(fmt.Sprintf("%s job (seed %d) result", j.spec.Experiment, j.spec.Seed), j.body, ref)
	}
	return nil
}

// newHTTPClient keeps one idle connection per closed-loop client.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns + 1, // the readiness probe shares the pool
		DisableCompression:  true,
	}}
}

// serviceWorkload measures edcached from CPU-count closed-loop clients
// for cfg.seconds, one fresh server per round, then the output gate.
// service-cold rounds run the mix once over an empty data directory;
// service-warm first runs the mix once (untimed) to fill a store, then
// each round resubmits the mix warmRepeats times over it.
func serviceWorkload(ctx context.Context, cfg config) (*outcome, error) {
	dir := filepath.Join(cfg.work, "service")
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	hc := newHTTPClient(cfg.workers)
	defer hc.CloseIdleConnections()
	sess := &session{cfg: cfg, hc: hc, clients: cfg.workers, dir: dir, specs: mixSpecs(cfg)}
	cold := cfg.workload == "service-cold"

	var jobs []jobRecord
	specs := sess.specs
	if !cold {
		warm, err := sess.warmUp(ctx)
		if err != nil {
			return nil, err
		}
		jobs = warm
		specs = sess.warmSpecs()
	}
	setup := &setupSampler{take: func(i int) (time.Duration, error) { return sess.setupTime(ctx, i) }}
	var rounds []roundStats
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < cfg.seconds; r++ {
		if err := setup.sample(4); err != nil {
			return nil, err
		}
		rs, err := sess.round(ctx, r, specs, nil, 0)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rs)
	}
	if err := setup.sample(setupSamples); err != nil {
		return nil, err
	}

	o := &outcome{}
	var g gate
	for _, rs := range rounds {
		jobs = append(jobs, rs.jobs...)
	}
	if err := references(ctx, cfg, jobs, &g); err != nil {
		return nil, err
	}
	o.attempted, o.failed = g.attempted, g.failed

	var walls, cpus, rss, lat []float64
	var phase time.Duration
	non2xx := 0
	var headline []byte
	for _, rs := range rounds {
		walls = append(walls, rs.wall.Seconds())
		cpus = append(cpus, rs.cpu.Seconds())
		rss = append(rss, rs.maxRSS)
		phase += rs.wall
		for _, j := range rs.jobs {
			non2xx += j.non2xx
			if j.err != nil {
				continue
			}
			lat = append(lat, j.total.Seconds()*1000)
			if headline == nil && j.spec.Experiment == "headline" {
				headline = j.body
			}
		}
	}
	if headline == nil || len(lat) == 0 {
		return nil, errors.New("no job of the mix completed")
	}
	dev, err := headlineDeviation(headline)
	if err != nil {
		return nil, err
	}
	what := "the mix once over an empty data directory (every point computed and stored)"
	if !cold {
		what = fmt.Sprintf("the mix %d× over a warm store (every point a store hit)", warmRepeats)
	}
	o.note("%d rounds of %v: a fresh server -workers %d per round, %d closed-loop clients, %s",
		len(rounds), serviceMix, cfg.workers, sess.clients, what)
	o.add("setup_s", quantile(setup.xs, 0.25), "s", len(setup.xs), "lower quartile: server start until the first 200 from /readyz, over the workload's data directory")
	o.add("wall_s", median(walls), "s", len(walls), fmt.Sprintf("median round: first submit until the last result; quartiles %.4f..%.4f", quantile(walls, 0.25), quantile(walls, 0.75)))
	o.add("cpu_s", median(cpus), "s", len(cpus), fmt.Sprintf("median server user+sys CPU per round (its rusage; one server per round); quartiles %.4f..%.4f", quantile(cpus, 0.25), quantile(cpus, 0.75)))
	o.add("peak_rss_mb", mean(rss), "MB", len(rss), fmt.Sprintf("mean per-round server peak RSS; range %.1f..%.1f", quantile(rss, 0), quantile(rss, 1)))
	o.add("headline_dev_pp", dev, "pp", 1, "simulated: from the first headline job's result")
	if cold {
		o.add("cold_job_p50_ms", median(lat), "ms", len(lat), "median submit→result latency of cold jobs")
	} else {
		o.add("warm_job_p50_ms", median(lat), "ms", len(lat), "median submit→result latency of warm jobs")
		tv, pct, ok := tail(lat)
		note := fmt.Sprintf("p%.1f, %d samples beyond", pct, tailBeyond)
		if !ok {
			note = "max: too few samples for a tail"
		}
		o.add("warm_job_tail_ms", tv, "ms", len(lat), note)
		o.add("warm_jobs_per_s", float64(len(lat))/phase.Seconds(), "1/s", len(lat), "warm jobs completed per second of round")
	}
	o.add("non2xx", float64(non2xx), "count", len(jobs), "non-2xx HTTP answers")
	return o, nil
}
