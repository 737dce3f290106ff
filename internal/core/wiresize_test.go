package core_test

import (
	"encoding/json"
	"strings"
	"testing"

	"sww/internal/core"
	"sww/internal/html"
	"sww/internal/workload"
)

// TestPlaceholderMetadataBytes: a LoadPage placeholder's metadata
// attribute crosses the wire as its JSON and the two delimiters. The
// JSON holds more double quotes than single ones, so the renderer
// delimits it with single quotes and writes its double quotes as
// themselves — WireSize's count of it, not one &quot; (6 bytes) each.
func TestPlaceholderMetadataBytes(t *testing.T) {
	for i := 0; i < workload.WikimediaImageCount; i++ { // every landscape prompt
		page := workload.LoadPage(i)
		phs, errs := core.FindPlaceholders(page.Doc)
		if len(errs) > 0 || len(phs) != 2 {
			t.Fatalf("LoadPage(%d): %d placeholders, errors %v", i, len(phs), errs)
		}
		for _, ph := range phs {
			meta, err := json.Marshal(ph.Content.Meta)
			if err != nil {
				t.Fatal(err)
			}
			if len(meta) != ph.Content.WireSize()-len(ph.Content.Type) {
				t.Fatalf("%s: WireSize %d does not count the %d-byte JSON", ph.Content.Meta.Name, ph.Content.WireSize(), len(meta))
			}
			div := html.RenderString(ph.Node)
			_, attr, ok := strings.Cut(div, " metadata=")
			attr = strings.TrimSuffix(attr, "></div>")
			if want := "'" + string(meta) + "'"; !ok || attr != want {
				t.Fatalf("%s renders metadata as %d bytes %s, want its %d-byte JSON and two delimiters",
					ph.Content.Meta.Name, len(attr), attr, len(meta))
			}
		}
	}
}
