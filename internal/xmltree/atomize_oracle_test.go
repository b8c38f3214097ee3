package xmltree_test

import (
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// The atomizer's oracle is the chain it replaced: every descendant text node
// concatenated into a strings.Builder, then TrimSpace and ParseFloat — with
// the finite-only rule the order keys always applied.

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

func oracleNumber(s string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, false
	}
	return f, true
}

func checkAtomizeAgainstOracle(t *testing.T, label string, d *xmltree.Document, stride int) {
	t.Helper()
	for i := 0; i < d.Len(); i += stride {
		n := xmltree.NodeID(i)
		want := oracleStringValue(d, n)
		if got := d.StringValue(n); got != want {
			t.Fatalf("%s node %d (%v): StringValue %q, oracle %q", label, i, d.Kind(n), got, want)
		}
		wantF, wantOK := oracleNumber(want)
		if f, ok := d.NumberValue(n); ok != wantOK || f != wantF {
			t.Fatalf("%s node %d %q: NumberValue %v %v, oracle %v %v", label, i, want, f, ok, wantF, wantOK)
		}
		s, f, ok := d.Atomize(n)
		if s != strings.TrimSpace(want) || ok != wantOK || f != wantF {
			t.Fatalf("%s node %d %q: Atomize %q %v %v, oracle %v %v", label, i, want, s, f, ok, wantF, wantOK)
		}
	}
}

func TestAtomizeMatchesOracle(t *testing.T) {
	values, err := xmltree.ParseString("values.xml", `<r>
		<leaf>42</leaf><pad>  7.5
		</pad><empty/><blank></blank><attr v=" 3 " w="x"/>
		<mixed>1<b>2</b>3</mixed><two>4<!--c-->5</two><nested><a><b>6</b></a></nested>
		<deep><a>x</a><a><b>y</b>z</a></deep><late><!--c--><?p i?>8</late>
		<nan>NaN</nan><inf>-Inf</inf><word>Infinity</word><big>1e999</big><hex>0x1p4</hex>
		<sign>+</sign><dot>.</dot><frac>.5</frac><neg>-0</neg><street>12 Main St</street>
	</r>`)
	if err != nil {
		t.Fatal(err)
	}
	checkAtomizeAgainstOracle(t, "values", values, 1)
	checkAtomizeAgainstOracle(t, "every kind", everyKindDoc(t), 1)

	xmark := datagen.XMark(datagen.DefaultXMarkConfig())
	checkAtomizeAgainstOracle(t, "xmark", xmark, 3)

	// The ingest shape: a node whose text descendants straddle the base and
	// the appended tail (the root), and leaves on either side of the seam.
	app := xmltree.NewAppender(values)
	for _, frag := range []string{`<leaf>43</leaf>`, `<mixed>a<b>b</b>c</mixed>`, `<attr v="9"/>`} {
		if err := app.AppendXML("frag", frag); err != nil {
			t.Fatal(err)
		}
	}
	overlay := app.Snapshot()
	if !overlay.Segmented() {
		t.Fatal("snapshot with appended content is not segmented")
	}
	checkAtomizeAgainstOracle(t, "overlay", overlay, 1)

	path := filepath.Join(t.TempDir(), "values.roxd")
	if err := xmltree.WritePackedFile(path, values, nil); err != nil {
		t.Fatal(err)
	}
	packed, err := xmltree.OpenPackedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkAtomizeAgainstOracle(t, "packed", packed.Doc(), 1)
}

// TestParseNumberMatchesOracle: the prefilter that spares strconv its error
// allocation rejects nothing ParseFloat would have read as a finite number.
func TestParseNumberMatchesOracle(t *testing.T) {
	for _, s := range []string{
		"", " ", "0", "-0", "+1", "-1.5", " 2 ", "\t3\n", ".5", "5.", "-.5", "+.5e1", "1e5", "1E-5",
		"1e999", "-1e999", "1e-999", "0x1p4", "-0X1P-2", "0x", "1_000", "0x_1p0", "_1",
		"NaN", "nan", "+NaN", "Inf", "-inf", "+Infinity", "infinity", "INF", ".", "+", "-", "+-1", "--1",
		"e5", ".e5", "1e", "12 Main St", "1 2", "٣", "1,5", "abc", "i", "n",
	} {
		wantF, wantOK := oracleNumber(s)
		if f, ok := xmltree.ParseNumber(s); ok != wantOK || f != wantF || math.Signbit(f) != math.Signbit(wantF) {
			t.Errorf("ParseNumber(%q) = %v %v, oracle %v %v", s, f, ok, wantF, wantOK)
		}
	}
	if n := testing.AllocsPerRun(100, func() { xmltree.ParseNumber("open_auction17") }); n != 0 {
		t.Errorf("ParseNumber of an ordinary string allocates %v times", n)
	}
}
