// Package scenario is the serving-grade verification layer: executable
// end-to-end scenarios stored as txtar archives — corpus XML, collection
// layout, queries and expected NDJSON output in one readable, diffable text
// file — with a runner that executes each scenario against three engine
// configurations (in-process, a single roxserve handler, and a loopback
// coordinator + shard-server cluster) and diffs all three against the
// archived expectations. Every tail shape the gather distinguishes (plain
// concat, ordered merge, algebraic aggregate, limit window) plus remote and
// partial-failure behavior is pinned this way; see the "Load harness and
// the perf gate" section of DESIGN.md for the format specification.
package scenario

import (
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
)

// Execution targets a scenario runs on.
const (
	TargetInProcess = "inproc"  // rox.Engine in this process
	TargetServer    = "server"  // one serve.Handler over the whole corpus
	TargetCluster   = "cluster" // loopback coordinator + two shard servers
)

// A Scenario is one parsed archive: corpus, queries and expectations.
type Scenario struct {
	// Name identifies the scenario in failure messages (the archive's file
	// stem).
	Name string
	// Comment is the archive's leading free-form text.
	Comment string

	// Collection names the sharded collection the shard/ files form
	// (default "c"). Queries address it with collection("<Collection>").
	Collection string
	// Targets lists the execution targets this scenario runs on
	// (default all three). Fault-injection scenarios restrict themselves to
	// the cluster target, where the fault is meaningful.
	Targets []string
	// Repeat runs every query this many times (default 1); all runs must
	// produce the archived output, so Repeat 2 exercises the plan-cache
	// replay path (on the cluster target, each shard server's own).
	Repeat int
	// Seed is the engine sampling seed (default 1).
	Seed int64
	// Retry "partial" selects the ShardRetryThenPartial failure policy on
	// every target's engine; "" keeps the fail-fast default.
	Retry string
	// Fault "kill-shard-server" closes the second shard server after
	// registration, so cluster queries run against a half-dead collection.
	Fault string
	// Restart "after-ingest" simulates a crash between the ingest steps and
	// the query/ queries: the target is torn down and rebuilt from the
	// original corpus plus a durable ingest directory, so the queries see
	// exactly what WAL replay restores. On the cluster target the coordinator
	// restarts while the shard servers stay up — they own durability for
	// remotely ingested fragments.
	Restart string

	// Shards are the collection's shard documents in name order (the order
	// that fixes collection result order).
	Shards []ArchiveFile
	// Docs are standalone documents addressed with doc("name").
	Docs []ArchiveFile
	// PreQueries run before the ingest steps (prequery/ files) — warming the
	// plan cache so the post-ingest queries exercise the stale-generation
	// replay path; their expectations pin the pre-ingest state.
	PreQueries []ScenarioQuery
	// Ingests are the scenario's ingest steps (ingest/ files named
	// "NN-TARGET") in name order, applied between PreQueries and Queries.
	// Each is one committed batch.
	Ingests []IngestStep
	// Queries are the scenario's queries in name order.
	Queries []ScenarioQuery
}

// An IngestStep appends one XML fragment batch to a collection or document
// and commits it.
type IngestStep struct {
	// Name is the archive file's base name ("NN-TARGET"); NN orders the
	// steps.
	Name string
	// Target is the collection or document the fragment is appended to.
	Target string
	// XML is the fragment batch (one or more top-level elements).
	XML string
}

// A ScenarioQuery is one query with its archived expectation: either Expect
// (decoded NDJSON item lines) or ExpectErr (a substring every target's
// error must contain).
type ScenarioQuery struct {
	Name string
	Text string
	// Mode "static" evaluates with the classical compile-time optimizer
	// instead of ROX run-time sampling (query file name suffix ".static").
	Mode string
	// Expect holds the expected result items, decoded from the archive's
	// expect/ NDJSON lines; nil when ExpectErr is set.
	Expect []string
	// HasExpect distinguishes "expect file present but empty result" from
	// "no expectation recorded yet".
	HasExpect bool
	// ExpectErr is a substring the evaluation error must contain.
	ExpectErr string
}

// Parse parses one scenario archive. name labels failures (usually the
// archive file stem).
func Parse(name string, data []byte) (*Scenario, error) {
	a := ParseArchive(data)
	s := &Scenario{
		Name:       name,
		Comment:    strings.TrimSpace(a.Comment),
		Collection: "c",
		Targets:    []string{TargetInProcess, TargetServer, TargetCluster},
		Repeat:     1,
		Seed:       1,
	}
	queries := map[string]*ScenarioQuery{}
	var queryNames []string
	pre := map[string]bool{}
	getQuery := func(qname string) *ScenarioQuery {
		if q, ok := queries[qname]; ok {
			return q
		}
		q := &ScenarioQuery{Name: qname}
		queries[qname] = q
		queryNames = append(queryNames, qname)
		return q
	}
	for _, f := range a.Files {
		dir, base := path.Split(f.Name)
		switch strings.TrimSuffix(dir, "/") {
		case "":
			if f.Name != "config" {
				return nil, fmt.Errorf("scenario %s: unknown top-level file %q", name, f.Name)
			}
			if err := s.parseConfig(string(f.Data)); err != nil {
				return nil, err
			}
		case "shard":
			s.Shards = append(s.Shards, ArchiveFile{Name: base, Data: f.Data})
		case "doc":
			s.Docs = append(s.Docs, ArchiveFile{Name: base, Data: f.Data})
		case "query":
			q := getQuery(strings.TrimSuffix(base, ".static"))
			q.Text = strings.TrimSpace(string(f.Data))
			if strings.HasSuffix(base, ".static") {
				q.Mode = "static"
			}
		case "prequery":
			qname := strings.TrimSuffix(base, ".static")
			q := getQuery(qname)
			if q.Text != "" {
				return nil, fmt.Errorf("scenario %s: query %q defined in both query/ and prequery/", name, qname)
			}
			q.Text = strings.TrimSpace(string(f.Data))
			if strings.HasSuffix(base, ".static") {
				q.Mode = "static"
			}
			pre[qname] = true
		case "ingest":
			seq, target, ok := strings.Cut(base, "-")
			if !ok || seq == "" || target == "" {
				return nil, fmt.Errorf("scenario %s: ingest file %q: want NN-TARGET", name, base)
			}
			s.Ingests = append(s.Ingests, IngestStep{Name: base, Target: target, XML: string(f.Data)})
		case "expect":
			q := getQuery(base)
			items, err := decodeExpect(f.Data)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: expect/%s: %w", name, base, err)
			}
			q.Expect = items
			q.HasExpect = true
		case "expect-error":
			q := getQuery(base)
			q.ExpectErr = strings.TrimSpace(string(f.Data))
			if q.ExpectErr == "" {
				return nil, fmt.Errorf("scenario %s: expect-error/%s is empty", name, base)
			}
		default:
			return nil, fmt.Errorf("scenario %s: unknown directory in file %q", name, f.Name)
		}
	}
	sort.Slice(s.Shards, func(i, j int) bool { return s.Shards[i].Name < s.Shards[j].Name })
	sort.Slice(s.Docs, func(i, j int) bool { return s.Docs[i].Name < s.Docs[j].Name })
	sort.Slice(s.Ingests, func(i, j int) bool { return s.Ingests[i].Name < s.Ingests[j].Name })
	sort.Strings(queryNames)
	for _, qname := range queryNames {
		q := queries[qname]
		if q.Text == "" {
			return nil, fmt.Errorf("scenario %s: expectation for %q has no query/%s file", name, qname, qname)
		}
		if q.HasExpect && q.ExpectErr != "" {
			return nil, fmt.Errorf("scenario %s: query %q has both expect/ and expect-error/", name, qname)
		}
		if pre[qname] {
			s.PreQueries = append(s.PreQueries, *q)
		} else {
			s.Queries = append(s.Queries, *q)
		}
	}
	if len(s.Queries) == 0 {
		return nil, fmt.Errorf("scenario %s: no query/ files", name)
	}
	if s.Restart != "" && len(s.Ingests) == 0 {
		return nil, fmt.Errorf("scenario %s: restart needs ingest/ steps", name)
	}
	if len(s.Shards) == 0 && len(s.Docs) == 0 {
		return nil, fmt.Errorf("scenario %s: no shard/ or doc/ corpus files", name)
	}
	return s, nil
}

// parseConfig reads the optional config file: one "key value" per line,
// #-comments and blank lines skipped.
func (s *Scenario) parseConfig(text string) error {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		val = strings.TrimSpace(val)
		switch key {
		case "collection":
			if val == "" {
				return fmt.Errorf("scenario %s: config: empty collection name", s.Name)
			}
			s.Collection = val
		case "targets":
			s.Targets = nil
			for _, t := range strings.Split(val, ",") {
				switch t = strings.TrimSpace(t); t {
				case TargetInProcess, TargetServer, TargetCluster:
					s.Targets = append(s.Targets, t)
				default:
					return fmt.Errorf("scenario %s: config: unknown target %q", s.Name, t)
				}
			}
			if len(s.Targets) == 0 {
				return fmt.Errorf("scenario %s: config: empty targets list", s.Name)
			}
		case "repeat":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return fmt.Errorf("scenario %s: config: bad repeat %q", s.Name, val)
			}
			s.Repeat = n
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return fmt.Errorf("scenario %s: config: bad seed %q", s.Name, val)
			}
			s.Seed = n
		case "retry":
			if val != "partial" {
				return fmt.Errorf("scenario %s: config: unknown retry policy %q (want partial)", s.Name, val)
			}
			s.Retry = val
		case "fault":
			if val != "kill-shard-server" {
				return fmt.Errorf("scenario %s: config: unknown fault %q (want kill-shard-server)", s.Name, val)
			}
			s.Fault = val
		case "restart":
			if val != "after-ingest" {
				return fmt.Errorf("scenario %s: config: unknown restart %q (want after-ingest)", s.Name, val)
			}
			s.Restart = val
		default:
			return fmt.Errorf("scenario %s: config: unknown key %q", s.Name, key)
		}
	}
	if s.Fault != "" {
		for _, t := range s.Targets {
			if t != TargetCluster {
				return fmt.Errorf("scenario %s: fault injection only runs on the cluster target (config: targets cluster)", s.Name)
			}
		}
	}
	return nil
}

// RunsOn reports whether the scenario includes the target.
func (s *Scenario) RunsOn(target string) bool {
	for _, t := range s.Targets {
		if t == target {
			return true
		}
	}
	return false
}
