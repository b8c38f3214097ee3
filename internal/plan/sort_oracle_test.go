package plan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/table"
	"repro/internal/xmltree"
)

// The key sort's oracle is the tail it replaced, kept as PR 16 kept the map
// merges: a key read by concatenating text nodes into a strings.Builder,
// TrimSpace and ParseFloat, and a full reflective sort.SliceStable before the
// window is cut — over a path matcher that compares NodeName strings and
// Parent, one node at a time. The bounded selection, the id-compared walker
// and the atomizer must return the same rows and the same keys for every
// window.

func oracleMatchNodes(d *xmltree.Document, n xmltree.NodeID, path []KeyStep) []xmltree.NodeID {
	cur := []xmltree.NodeID{n}
	for _, st := range path {
		var next []xmltree.NodeID
		for _, c := range cur {
			end := c + d.Size(c)
			for i := c + 1; i <= end; i++ {
				if !st.Desc && d.Parent(i) != c {
					continue
				}
				var hit bool
				switch {
				case st.Attr:
					hit = d.Kind(i) == xmltree.KindAttr && d.NodeName(i) == st.Name
				case st.Text:
					hit = d.Kind(i) == xmltree.KindText
				default:
					hit = d.Kind(i) == xmltree.KindElem && d.NodeName(i) == st.Name
				}
				if hit {
					next = append(next, i)
				}
			}
		}
		slices.Sort(next)
		cur = slices.Compact(next)
	}
	return cur
}

func oracleStringValue(d *xmltree.Document, n xmltree.NodeID) string {
	switch d.Kind(n) {
	case xmltree.KindText, xmltree.KindAttr, xmltree.KindComment, xmltree.KindPI:
		return d.Value(n)
	}
	var sb strings.Builder
	end := n + d.Size(n)
	for i := n + 1; i <= end; i++ {
		if d.Kind(i) == xmltree.KindText {
			sb.WriteString(d.Value(i))
		}
	}
	return sb.String()
}

func oracleKey(d *xmltree.Document, n xmltree.NodeID, path []KeyStep) Key {
	ms := oracleMatchNodes(d, n, path)
	if len(ms) == 0 {
		return Key{}
	}
	s := strings.TrimSpace(oracleStringValue(d, ms[0]))
	if f, err := strconv.ParseFloat(s, 64); err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) {
		return Key{Present: true, IsNum: true, Num: f, Str: s}
	}
	return Key{Present: true, Str: s}
}

// oracleSortByKeys is the old sortByKeys: every row stable-sorted by key.
func oracleSortByKeys(rel *table.Relation, spec *OrderSpec) (*table.Relation, []Key) {
	doc, col := rel.Doc(spec.Vertex), rel.Column(spec.Vertex)
	keys := make([]Key, len(col))
	for i, n := range col {
		keys[i] = oracleKey(doc, n, spec.Path)
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		c := keys[idx[a]].Compare(keys[idx[b]])
		if spec.Desc {
			return c > 0
		}
		return c < 0
	})
	sorted := make([]Key, len(keys))
	for i, ri := range idx {
		sorted[i] = keys[ri]
	}
	return rel.Permute(idx), sorted
}

// sortCaseValues is the alphabet a generated row draws its key from: ties
// (several spellings of 2), padded and exponent numbers, strings that start
// like numbers, the non-finite spellings, empty and mixed content.
var sortCaseValues = []string{
	"<k>1</k>", "<k>2</k>", "<k> 2 </k>", "<k>2.0</k>", "<k>-1</k>", "<k>1e2</k>", "<k>.5</k>",
	"<k>abc</k>", "<k>abd</k>", "<k>12 Main St</k>", "<k>NaN</k>", "<k>-Inf</k>", "<k>1e999</k>",
	"<k/>", "<k>1<b>2</b>3</k>", "<k><b>7</b></k>", "<k>x</k><k>0</k>", "<w><k>5</k></w>", "",
}

// sortCase builds the one-column relation of a generated document's <a>
// elements, one per entry of rows; each carries its key as child content and,
// for every third value, as an attribute too.
func sortCase(tb testing.TB, rows []byte) *table.Relation {
	tb.Helper()
	var sb strings.Builder
	sb.WriteString("<r>")
	for i, b := range rows {
		v := int(b) % len(sortCaseValues)
		if v%3 == 0 {
			fmt.Fprintf(&sb, `<a k="%d">`, (v*7+i)%5)
		} else {
			sb.WriteString("<a>")
		}
		sb.WriteString(sortCaseValues[v])
		sb.WriteString("</a>")
	}
	sb.WriteString("</r>")
	d, err := xmltree.ParseString("sort.xml", sb.String())
	if err != nil {
		tb.Fatal(err)
	}
	rel := table.NewRelation([]int{0}, []*xmltree.Document{d})
	for _, n := range elems(d, "a") {
		rel.AppendRow([]xmltree.NodeID{n})
	}
	return rel
}

var sortCasePaths = [][]KeyStep{
	{{Name: "k"}},
	{{Desc: true, Name: "k"}},
	{{Attr: true, Name: "k"}},
	{{Name: "k"}, {Text: true}},
	{{Desc: true, Name: "k"}, {Desc: true, Text: true}},
	{{Name: "missing"}},
	nil,
}

// checkSortCase compares the tail against the oracle on one relation, path and
// direction: the selection itself for every bound k in 0…n+1, Execute for
// every count, with an offset and without, and for offset-only windows, and
// the selection bounded from a key.
func checkSortCase(rel *table.Relation, path []KeyStep, desc bool) error {
	spec := &OrderSpec{Vertex: 0, Path: path, Desc: desc}
	n := rel.NumRows()
	wantRel, wantKeys := oracleSortByKeys(rel, spec)
	same := func(what string, got *table.Relation, gotKeys []Key, lo, hi int) error {
		lo, hi = min(lo, n), min(hi, n)
		if !slices.Equal(got.Column(0), wantRel.Column(0)[lo:hi]) {
			return fmt.Errorf("%s %s: rows %v, oracle %v", spec, what, got.Column(0), wantRel.Column(0)[lo:hi])
		}
		if !slices.Equal(gotKeys, wantKeys[lo:hi]) {
			return fmt.Errorf("%s %s: keys %v, oracle %v", spec, what, gotKeys, wantKeys[lo:hi])
		}
		return nil
	}
	for k := 0; k <= n+1; k++ {
		got, keys, _ := sortByKeys(nil, nil, rel, spec, nil, k)
		if err := same(fmt.Sprintf("k=%d", k), got, keys, 0, k); err != nil {
			return err
		}
		for _, offset := range []int{0, 1, n / 2, n + 1} {
			// Count 0 is the offset-only window.
			tail := &Tail{Project: []int{0}, Final: []int{0}, Order: spec, Limit: &LimitSpec{Count: k, Offset: offset}}
			got, keys, scanned := tail.Execute(rel)
			hi := offset + k
			if k == 0 {
				hi = n
			}
			if err := same(tail.Limit.String(), got, keys, offset, hi); err != nil {
				return err
			}
			if scanned != n {
				return fmt.Errorf("%s %s: scanned %d of %d rows", spec, tail.Limit, scanned, n)
			}
		}
	}
	got, keys, _ := (&Tail{Project: []int{0}, Final: []int{0}, Order: spec}).Execute(rel)
	if err := same("unwindowed", got, keys, 0, n); err != nil {
		return err
	}
	// The bounded selection, from every key of the case and an absent one:
	// the rows before the bound are the oracle's prefix of keys that sort
	// strictly before it, and the rows selected the ones right after it, for
	// skip 0…3 and a count of one.
	for _, from := range append(slices.Clone(wantKeys), Key{}) {
		want := 0
		for ; want < n; want++ {
			c := wantKeys[want].Compare(from)
			if c == 0 || (c > 0) != desc {
				break
			}
		}
		for skip := 0; skip <= 3; skip++ {
			k := skip + 1
			got, keys, before := sortByKeys(nil, nil, rel, spec, &from, k)
			if before != want {
				return fmt.Errorf("%s from %+v: %d rows before, oracle %d", spec, from, before, want)
			}
			if err := same(fmt.Sprintf("from %+v k=%d", from, k), got, keys, want, want+k); err != nil {
				return err
			}
			tail := &Tail{Project: []int{0}, Final: []int{0}, Order: spec, Limit: &LimitSpec{Count: k, From: &from}}
			got, keys, scanned, before := tail.run(nil, nil, rel)
			if before != want || scanned != n {
				return fmt.Errorf("%s from %+v: tail counts %d rows before of %d, oracle %d of %d", spec, from, before, scanned, want, n)
			}
			if err := same(fmt.Sprintf("tail from %+v count %d", from, k), got, keys, want, want+k); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestSortByKeysMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for round := 0; round < 60; round++ {
		rows := make([]byte, rng.Intn(24))
		for i := range rows {
			rows[i] = byte(rng.Intn(256))
		}
		rel := sortCase(t, rows)
		for _, path := range sortCasePaths {
			for _, desc := range []bool{false, true} {
				if err := checkSortCase(rel, path, desc); err != nil {
					t.Fatalf("rows %v: %v", rows, err)
				}
			}
		}
	}
}

// FuzzSortByKeysMatchesOracle: the first byte picks the path and the
// direction, the rest are the rows' key values.
func FuzzSortByKeysMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 2, 3})                       // all ties: 2, 2, " 2 ", 2.0
	f.Add([]byte{1, 18, 0, 18, 7, 10, 11, 12, 13, 14}) // descending, absent and non-finite keys
	f.Add([]byte{2, 0, 3, 6, 9, 12, 15, 18, 0, 3})     // attribute keys
	f.Add([]byte{9, 16, 15, 14, 17, 4, 5})             // //k//text() over mixed content
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			data = []byte{0}
		}
		sel, rows := int(data[0]), data[1:]
		if len(rows) > 40 {
			rows = rows[:40]
		}
		path := sortCasePaths[(sel/2)%len(sortCasePaths)]
		if err := checkSortCase(sortCase(t, rows), path, sel%2 == 1); err != nil {
			t.Fatal(err)
		}
	})
}
