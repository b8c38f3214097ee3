package synopsis_test

import (
	"testing"

	"repro"
	"repro/internal/datagen"
	"repro/internal/synopsis"
)

// TestGuideMatchesXPathOnRandomDocs: DataGuide linear-path counts must be
// exact — cross-check against the engine's count of the same path on a
// generated document.
func TestGuideMatchesXPathOnRandomDocs(t *testing.T) {
	cfg := datagen.DefaultXMarkConfig()
	cfg.Persons, cfg.Items, cfg.OpenAuctions = 120, 90, 70
	d := datagen.XMark(cfg)
	g := synopsis.Build(d)
	eng := rox.NewEngine()
	if err := eng.LoadSource(rox.FromDocument(d)); err != nil {
		t.Fatal(err)
	}
	paths := []string{
		"//person", "//open_auction", "//open_auction/bidder",
		"//bidder/personref", "//item/quantity", "/site/people/person",
		"//open_auction//personref", "/site//bidder", "//person/province",
	}
	for _, p := range paths {
		want, err := eng.XPathCount(d.Name(), p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		got, err := g.EstimatePath(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if got != want {
			t.Errorf("%s: guide %d, engine %d", p, got, want)
		}
	}
}
