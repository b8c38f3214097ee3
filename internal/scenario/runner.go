// runner.go executes a parsed scenario on its targets and diffs the results
// against the archived expectations. The three targets share one corpus and
// one expectation, so a divergence localizes a bug to a layer: inproc vs
// server isolates the HTTP/NDJSON surface, server vs cluster isolates the
// scatter-gather wire protocol.
package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"

	"repro"
	"repro/internal/loadgen"
	"repro/internal/serve"
)

// An Outcome is one query execution's observed result on one target.
type Outcome struct {
	Query string // query name
	Run   int    // repeat index, 0-based
	Items []string
	Err   string // non-empty: the evaluation failed with this message
}

// Run executes every query (Repeat times each) on one target. A returned
// error is a harness failure (target could not be built, stream truncated);
// query evaluation errors land in Outcome.Err instead.
func (s *Scenario) Run(ctx context.Context, target string) ([]Outcome, error) {
	switch target {
	case TargetInProcess:
		return s.runInProcess(ctx)
	case TargetServer:
		return s.runServer(ctx)
	case TargetCluster:
		return s.runCluster(ctx)
	default:
		return nil, fmt.Errorf("scenario %s: unknown target %q", s.Name, target)
	}
}

// engineOptions translates scenario config into engine options.
func (s *Scenario) engineOptions() []rox.Option {
	opts := []rox.Option{rox.WithSeed(s.Seed)}
	if s.Retry == "partial" {
		opts = append(opts, rox.WithShardRetry(rox.ShardRetryThenPartial))
	}
	return opts
}

// buildEngine loads docs and, when withShards, the collection shards into a
// fresh engine. Shards load in name order — the order that fixes collection
// result order, and the order the cluster target's contiguous-half split
// must preserve.
func (s *Scenario) buildEngine(withShards bool) (*rox.Engine, error) {
	eng := rox.NewEngine(s.engineOptions()...)
	for _, d := range s.Docs {
		if err := eng.LoadSource(rox.FromXML(d.Name, string(d.Data))); err != nil {
			return nil, fmt.Errorf("scenario %s: load doc/%s: %w", s.Name, d.Name, err)
		}
	}
	if withShards {
		for _, sh := range s.Shards {
			if err := eng.LoadCollectionSource(s.Collection, rox.FromXML(sh.Name, string(sh.Data))); err != nil {
				return nil, fmt.Errorf("scenario %s: load shard/%s: %w", s.Name, sh.Name, err)
			}
		}
	}
	return eng, nil
}

func (s *Scenario) runInProcess(ctx context.Context) ([]Outcome, error) {
	return s.lifecycle(ctx, func() (*rox.Engine, error) { return s.buildEngine(true) }, false)
}

func (s *Scenario) runServer(ctx context.Context) ([]Outcome, error) {
	return s.lifecycle(ctx, func() (*rox.Engine, error) { return s.buildEngine(true) }, true)
}

func (s *Scenario) runCluster(ctx context.Context) ([]Outcome, error) {
	// Contiguous halves: endpoint-order registration (A's shards, then B's)
	// then preserves the single-server name-sorted shard order, so plain
	// concatenated results are byte-identical across targets.
	half := (len(s.Shards) + 1) / 2
	halves := [][]ArchiveFile{s.Shards[:half], s.Shards[half:]}
	var endpoints []rox.Endpoint
	var shardServers []*httptest.Server
	defer func() {
		for _, sv := range shardServers {
			sv.Close()
		}
	}()
	for _, hs := range halves {
		if len(hs) == 0 {
			continue
		}
		shardEng := rox.NewEngine(s.engineOptions()...)
		names := make([]string, 0, len(hs))
		for _, sh := range hs {
			// A shard server holds its shards as plain documents; the
			// coordinator's registration is what makes them shards of a
			// collection.
			if err := shardEng.LoadSource(rox.FromXML(sh.Name, string(sh.Data))); err != nil {
				return nil, fmt.Errorf("scenario %s: load shard/%s: %w", s.Name, sh.Name, err)
			}
			names = append(names, sh.Name)
		}
		sv := httptest.NewServer(serve.New(rox.NewPool(shardEng, 2), serve.Config{Role: "shard"}))
		shardServers = append(shardServers, sv)
		endpoints = append(endpoints, rox.Endpoint{URL: sv.URL, Shards: names})
	}
	if s.Fault == "kill-shard-server" {
		if len(shardServers) < 2 {
			return nil, fmt.Errorf("scenario %s: fault kill-shard-server needs at least 2 shards", s.Name)
		}
		shardServers[len(shardServers)-1].Close()
	}
	// The coordinator's own WAL covers locally ingested documents; the shard
	// servers hold remotely ingested fragments across the coordinator restart
	// (they own durability for their shards).
	return s.lifecycle(ctx, func() (*rox.Engine, error) {
		coord, err := s.buildEngine(false)
		if err != nil || len(endpoints) == 0 {
			return coord, err
		}
		if err := coord.LoadCollectionRemote(ctx, s.Collection, endpoints); err != nil {
			return nil, fmt.Errorf("scenario %s: register remote shards: %w", s.Name, err)
		}
		return coord, nil
	}, true)
}

// lifecycle drives one target through the scenario's steps: build its
// engine, run the pre-queries, apply the ingest steps and — when the
// scenario restarts — crash (drop the engine, rebuild it from the original
// corpus and let WAL replay restore every committed batch) before running the
// queries. overHTTP serves each engine through the production handler and
// drives it over the NDJSON wire; otherwise the steps call the engine.
func (s *Scenario) lifecycle(ctx context.Context, build func() (*rox.Engine, error), overHTTP bool) ([]Outcome, error) {
	var walDir string
	if s.Restart != "" {
		// A durable ingest directory, so the crash has a WAL to replay.
		var err error
		if walDir, err = os.MkdirTemp("", "scenario-wal-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(walDir)
	}
	t, err := s.start(build, walDir, overHTTP)
	if err != nil {
		return nil, err
	}
	defer func() { t.stop() }()
	outs, err := s.runQueries(ctx, t, s.PreQueries, nil)
	if err != nil {
		return nil, err
	}
	for _, st := range s.Ingests {
		if err := s.ingest(ctx, t, st); err != nil {
			return nil, err
		}
	}
	if s.Restart != "" {
		t.stop()
		if err := t.eng.Ingest().Close(); err != nil {
			return nil, err
		}
		restarted, err := s.start(build, walDir, overHTTP)
		if err != nil {
			return nil, err
		}
		t = restarted
	}
	return s.runQueries(ctx, t, s.Queries, outs)
}

// target is one incarnation of a scenario target: its engine, and the test
// server in front of it when the target is driven over HTTP.
type target struct {
	eng *rox.Engine
	ts  *httptest.Server // nil: the steps call eng in process
}

// start builds a target's engine, attaches the WAL directory when there is
// one, and puts the engine behind a server when overHTTP.
func (s *Scenario) start(build func() (*rox.Engine, error), walDir string, overHTTP bool) (*target, error) {
	eng, err := build()
	if err != nil {
		return nil, err
	}
	if walDir != "" {
		if _, err := eng.OpenIngestDir(walDir); err != nil {
			return nil, fmt.Errorf("scenario %s: open ingest dir: %w", s.Name, err)
		}
	}
	t := &target{eng: eng}
	if overHTTP {
		t.ts = httptest.NewServer(serve.New(rox.NewPool(eng, 4), serve.Config{}))
	}
	return t, nil
}

func (t *target) stop() {
	if t.ts != nil {
		t.ts.Close()
	}
}

// runQueries appends each query's outcomes (Repeat runs) on t to outs.
func (s *Scenario) runQueries(ctx context.Context, t *target, queries []ScenarioQuery, outs []Outcome) ([]Outcome, error) {
	for _, q := range queries {
		for run := 0; run < s.Repeat; run++ {
			o, err := t.query(ctx, q)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: query %s run %d: %w", s.Name, q.Name, run, err)
			}
			o.Query, o.Run = q.Name, run
			outs = append(outs, o)
		}
	}
	return outs, nil
}

// query runs one query on the target. In process, an evaluation error is the
// outcome, never a harness failure.
func (t *target) query(ctx context.Context, q ScenarioQuery) (Outcome, error) {
	if t.ts != nil {
		return streamQuery(ctx, t.ts.Client(), t.ts.URL, q)
	}
	rows, err := t.eng.Execute(ctx, rox.Request{Query: q.Text, Static: q.Mode == "static"})
	if err != nil {
		return Outcome{Err: err.Error()}, nil
	}
	res, err := rows.Collect()
	if err != nil {
		return Outcome{Err: err.Error()}, nil
	}
	return Outcome{Items: res.Items}, nil
}

// ingest applies one ingest step as one committed batch: through the engine
// in process, or through the serving surface — POST
// /v1/collections/{target}/ingest.
func (s *Scenario) ingest(ctx context.Context, t *target, st IngestStep) error {
	if t.ts == nil {
		if err := t.eng.Append(st.Target, st.XML); err != nil {
			return fmt.Errorf("scenario %s: ingest/%s: %w", s.Name, st.Name, err)
		}
		if _, err := t.eng.Commit(ctx); err != nil {
			return fmt.Errorf("scenario %s: commit ingest/%s: %w", s.Name, st.Name, err)
		}
		return nil
	}
	u := t.ts.URL + "/v1/collections/" + url.PathEscape(st.Target) + "/ingest?create=1"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(st.XML))
	if err != nil {
		return err
	}
	resp, err := t.ts.Client().Do(req)
	if err != nil {
		return fmt.Errorf("scenario %s: ingest/%s: %w", s.Name, st.Name, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scenario %s: ingest/%s: status %d: %s", s.Name, st.Name, resp.StatusCode, body)
	}
	return nil
}

// streamQuery executes one query over the NDJSON wire through the load
// harness's reader, which enforces the stream contract. A pre-stream refusal
// and a mid-stream terminal {"error"} line both land in Outcome.Err; a stream
// that ends without any terminal line is truncation — a harness error, never
// a short success.
func streamQuery(ctx context.Context, client *http.Client, base string, q ScenarioQuery) (Outcome, error) {
	v := url.Values{"q": {q.Text}}
	if q.Mode == "static" {
		v.Set("mode", "static")
	}
	res, err := loadgen.StreamQuery(ctx, client, base, v)
	switch {
	case err != nil:
		return Outcome{}, err
	case res.Terminal == "stats":
		return Outcome{Items: res.Items}, nil
	case res.Terminal == "error":
		return Outcome{Err: res.ErrMsg}, nil
	default:
		return Outcome{}, fmt.Errorf("stream truncated: %d items and no terminal stats/error line", len(res.Items))
	}
}

// Verify runs the scenario on every configured target and compares each
// outcome against the archived expectation. It returns human-readable
// mismatch descriptions (empty means the scenario passes everywhere); a
// non-nil error is a harness failure.
func Verify(ctx context.Context, s *Scenario) ([]string, error) {
	byName := make(map[string]*ScenarioQuery, len(s.Queries)+len(s.PreQueries))
	for i := range s.Queries {
		byName[s.Queries[i].Name] = &s.Queries[i]
	}
	for i := range s.PreQueries {
		byName[s.PreQueries[i].Name] = &s.PreQueries[i]
	}
	var mismatches []string
	for _, target := range s.Targets {
		outs, err := s.Run(ctx, target)
		if err != nil {
			return nil, err
		}
		for _, o := range outs {
			q := byName[o.Query]
			if d := diffOutcome(q, o); d != "" {
				mismatches = append(mismatches,
					fmt.Sprintf("%s/%s [%s run %d]: %s", s.Name, o.Query, target, o.Run, d))
			}
		}
	}
	return mismatches, nil
}

// diffOutcome compares one outcome with its query's expectation.
func diffOutcome(q *ScenarioQuery, o Outcome) string {
	if q.ExpectErr != "" {
		if o.Err == "" {
			return fmt.Sprintf("got %d items, want error containing %q", len(o.Items), q.ExpectErr)
		}
		if !strings.Contains(o.Err, q.ExpectErr) {
			return fmt.Sprintf("error %q does not contain %q", o.Err, q.ExpectErr)
		}
		return ""
	}
	if !q.HasExpect {
		return "no expectation recorded (rerun with -update to record one)"
	}
	if o.Err != "" {
		return fmt.Sprintf("unexpected error: %s", o.Err)
	}
	if len(o.Items) != len(q.Expect) {
		return fmt.Sprintf("%d items, want %d\n  got:  %s\n  want: %s",
			len(o.Items), len(q.Expect), preview(o.Items), preview(q.Expect))
	}
	for i := range o.Items {
		if o.Items[i] != q.Expect[i] {
			return fmt.Sprintf("item %d = %q, want %q", i, o.Items[i], q.Expect[i])
		}
	}
	return ""
}

func preview(items []string) string {
	const max = 3
	if len(items) > max {
		return fmt.Sprintf("%v ... (+%d more)", items[:max], len(items)-max)
	}
	return fmt.Sprintf("%v", items)
}

// decodeExpect parses an expect/ file: NDJSON {"item": ...} lines.
func decodeExpect(data []byte) ([]string, error) {
	items := []string{}
	for i, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var obj struct {
			Item *string `json:"item"`
		}
		if err := json.Unmarshal(line, &obj); err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		if obj.Item == nil {
			return nil, fmt.Errorf("line %d: no \"item\" key: %q", i+1, line)
		}
		items = append(items, *obj.Item)
	}
	return items, nil
}

// encodeExpect renders items as expect/ NDJSON lines.
func encodeExpect(items []string) []byte {
	var buf bytes.Buffer
	for _, it := range items {
		b, _ := json.Marshal(struct {
			Item string `json:"item"`
		}{it})
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// Update re-executes the archive's scenario on its first target and returns
// the archive bytes with every expect/ file regenerated from the observed
// output (expect-error files are authored by hand and left alone). Queries
// whose first run errors unexpectedly fail the update rather than recording
// an error as truth.
func Update(ctx context.Context, name string, data []byte) ([]byte, error) {
	s, err := Parse(name, data)
	if err != nil {
		return nil, err
	}
	outs, err := s.Run(ctx, s.Targets[0])
	if err != nil {
		return nil, err
	}
	fresh := map[string][]string{}
	for _, o := range outs {
		if o.Run != 0 {
			continue
		}
		q := findQuery(s, o.Query)
		if q.ExpectErr != "" {
			continue
		}
		if o.Err != "" {
			return nil, fmt.Errorf("scenario %s: query %s failed on %s: %s (write an expect-error/ file if that is intended)",
				name, o.Query, s.Targets[0], o.Err)
		}
		fresh[o.Query] = o.Items
	}
	a := ParseArchive(data)
	for _, q := range append(append([]ScenarioQuery{}, s.PreQueries...), s.Queries...) {
		items, ok := fresh[q.Name]
		if !ok {
			continue
		}
		qname := q.Name
		encoded := encodeExpect(items)
		replaced := false
		for i := range a.Files {
			if a.Files[i].Name == "expect/"+qname {
				a.Files[i].Data = encoded
				replaced = true
				break
			}
		}
		if !replaced {
			a.Files = append(a.Files, ArchiveFile{Name: "expect/" + qname, Data: encoded})
		}
	}
	return FormatArchive(a), nil
}

func findQuery(s *Scenario, name string) *ScenarioQuery {
	for i := range s.Queries {
		if s.Queries[i].Name == name {
			return &s.Queries[i]
		}
	}
	for i := range s.PreQueries {
		if s.PreQueries[i].Name == name {
			return &s.PreQueries[i]
		}
	}
	return nil
}
