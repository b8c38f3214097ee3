// Command roxq evaluates an XQuery over XML files with the ROX run-time
// optimizer (or the classical baseline) and prints the result items.
//
// Usage:
//
//	roxq -doc people.xml -doc orders.xml -query 'for $p in doc("people.xml")//person return $p'
//	roxq -doc data.xml -file query.xq -stats
//	roxq -doc data.xml -query '…' -classical       # static baseline
//	roxq -doc data.xml -query '…' -explain         # print the Join Graph
//	roxq -doc data.xml -xpath '//person[@id="p1"]' # for $n in doc(first -doc) PATH return $n
//
// Each -doc FILE is loaded under its base name, so doc("people.xml") refers
// to -doc path/to/people.xml. Files ending in .roxd are packed containers
// (cmd/roxpack, datagen -pack), mapped under their stored document name.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
)

type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint(*m) }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

func main() {
	var docs multiFlag
	flag.Var(&docs, "doc", "XML file to load (repeatable); addressed by base name")
	query := flag.String("query", "", "XQuery text")
	file := flag.String("file", "", "file containing the XQuery")
	xpathExpr := flag.String("xpath", "", "evaluate an XPath expression instead of an XQuery (uses the first -doc)")
	classical := flag.Bool("classical", false, "use the classical compile-time optimizer")
	explain := flag.Bool("explain", false, "print the compiled Join Graph instead of executing")
	stats := flag.Bool("stats", false, "print evaluation statistics")
	tau := flag.Int("tau", 100, "ROX sample size τ (at least 1)")
	seed := flag.Int64("seed", 1, "random seed for sampling")
	flag.Parse()
	if *tau < 1 { // a usage error, not a τ the optimizer cannot use
		fmt.Fprintf(os.Stderr, "roxq: -tau %d: the sample size must be at least 1\n", *tau)
		flag.Usage()
		os.Exit(2)
	}

	if err := run(os.Stdout, docs, *query, *file, *xpathExpr, *classical, *explain, *stats, *tau, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "roxq:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, docs []string, query, file, xpathExpr string, classical, explain, stats bool, tau int, seed int64) error {
	if query == "" && file == "" && xpathExpr == "" {
		return fmt.Errorf("need -query, -file or -xpath")
	}
	if query == "" && file != "" {
		b, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		query = string(b)
	}
	eng := rox.NewEngine(rox.WithSampleSize(tau), rox.WithSeed(seed))
	// firstDoc is the name the first -doc loaded under (its base name, or the
	// name stored in a .roxd container): what -xpath addresses.
	var firstDoc string
	for _, path := range docs {
		if err := eng.LoadSource(rox.FromPath("", path)); err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		if firstDoc == "" {
			firstDoc = eng.Documents()[0] // the only document so far
		}
	}
	if xpathExpr != "" {
		if len(docs) == 0 {
			return fmt.Errorf("-xpath needs at least one -doc")
		}
		items, err := eng.XPath(firstDoc, xpathExpr)
		if err != nil {
			return err
		}
		for _, item := range items {
			fmt.Fprintln(out, item)
		}
		return nil
	}
	if explain {
		s, err := eng.Explain(query)
		if err != nil {
			return err
		}
		fmt.Fprint(out, s)
		return nil
	}
	rows, err := eng.Execute(context.Background(), rox.Request{Query: query, Static: classical})
	if err != nil {
		return err
	}
	res, err := rows.Collect()
	if err != nil {
		return err
	}
	for _, item := range res.Items {
		fmt.Fprintln(out, item)
	}
	if stats {
		fmt.Fprintf(os.Stderr, "rows=%d elapsed=%s exec-tuples=%d sample-tuples=%d intermediates=%d\nplan: %s\n",
			res.Stats.Rows, res.Stats.ElapsedNS, res.Stats.ExecTuples,
			res.Stats.SampleTuples, res.Stats.CumulativeIntermediate, res.Stats.Plan)
	}
	return nil
}
