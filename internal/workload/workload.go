// Package workload builds the synthetic page corpus the experiments
// run on: the Wikimedia "Landscape" search-results page of Figure 2,
// the §6.2 newspaper article, the §2.1 travel blog, and the Table 2
// reference media items.
//
// Substitution note (see DESIGN.md): the paper fetched real Wikimedia
// content. Only byte counts, asset counts and prompt lengths matter
// for its measurements, so this package reproduces those
// distributions deterministically: 49 images totalling 1.4 MB with
// prompts of 120–262 characters, a 2400 B news article reduced to a
// 778 B prompt form, and so on.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/genai/imagegen"
	"sww/internal/html"
)

// Figure 2 constants.
const (
	// WikimediaImageCount is the number of search-result images.
	WikimediaImageCount = 49
	// WikimediaTotalBytes is the original transfer: "1.4MB of data
	// for 49 images".
	WikimediaTotalBytes = 1_400_000
	// WikimediaPath serves the page.
	WikimediaPath = "/wiki/landscape"
)

// §6.2 text experiment constants.
const (
	// ArticleBytes is the original newspaper article size.
	ArticleBytes = 2400
	// ArticleMetaBytes is the prompt-form size ("3.1× compression,
	// from 2400B to 778B").
	ArticleMetaBytes = 778
	// ArticlePath serves the article.
	ArticlePath = "/news/article"
)

// TravelBlogPath serves the §2.1 motivating page.
const TravelBlogPath = "/blog/hike"

// landscape prompt vocabulary. Combinations yield 49 distinct
// prompts whose lengths span the paper's 120–262 character range.
var (
	subjects = []string{
		"a sweeping alpine valley with a turquoise glacial lake",
		"rolling green farmland dotted with red wooden cabins",
		"a volcanic black sand beach under dramatic storm clouds",
		"a winding river delta seen from a high mountain ridge",
		"golden wheat fields stretching toward distant blue hills",
		"a mirror-calm fjord reflecting snow capped peaks",
		"a desert canyon glowing orange in late afternoon light",
	}
	moods = []string{
		"photographed at sunrise with soft mist in the lowlands",
		"captured at golden hour with long warm shadows",
		"under a clear summer sky with scattered cumulus clouds",
		"in early autumn with the first dusting of snow",
		"after fresh rain with saturated colors and wet rocks",
		"at blue hour with the first stars appearing",
		"in midwinter with deep snow and pale sunlight",
	}
	styles = []string{
		"wide angle landscape photograph, high detail",
		"professional nature photography, sharp foreground",
		"panoramic composition with strong leading lines",
		"high resolution scenic photograph with natural colors",
		"award winning landscape shot, balanced exposure",
		"crisp telephoto landscape compression, layered ridges",
		"large format film look, fine grain, deep focus",
	}
)

// LandscapePrompt returns the i-th deterministic landscape prompt
// (i in [0, 48]); lengths span roughly 120–262 characters.
func LandscapePrompt(i int) string {
	s := subjects[i%len(subjects)]
	m := moods[(i/len(subjects))%len(moods)]
	st := styles[(i/(len(subjects)*len(moods)))%len(styles)]
	p := fmt.Sprintf("%s, %s, %s", s, m, st)
	// Longer variants pad with detail clauses, mirroring the paper's
	// range up to 262 characters.
	if i%3 == 1 {
		p += ", distant birds in flight"
	}
	if i%3 == 2 {
		p += ", a narrow hiking trail in the foreground, soft haze"
	}
	return p
}

// WikimediaLandscape builds the Figure 2 page: a search-result
// gallery of 49 generatable images. The page stores prompt divs; the
// original JPEG bytes are attached as Originals so the traditional
// baseline and the compression accounting are exact.
func WikimediaLandscape() *core.Page {
	rng := rand.New(rand.NewSource(2))
	doc := html.Parse(`<!DOCTYPE html><html><head><title>Search results for "Landscape" - Wikimedia Commons</title></head><body><h1>Landscape</h1><div class="results"></div></body></html>`)
	results := doc.ByClass("results")[0]

	sizes := partitionBytes(rng, WikimediaTotalBytes, WikimediaImageCount)
	var originals []core.Asset
	for i := 0; i < WikimediaImageCount; i++ {
		name := fmt.Sprintf("landscape-%02d", i)
		// 240×240 thumbnails: the interpolated laptop timing lands on
		// the paper's 6.32 s/image (310 s for the whole page).
		gc := core.GeneratedContent{
			Type: core.ContentImage,
			Meta: core.Metadata{
				Prompt:        LandscapePrompt(i),
				Name:          name,
				Width:         240,
				Height:        240,
				OriginalBytes: sizes[i],
			},
		}
		div, err := gc.Div()
		if err != nil {
			panic(err) // static construction; must not fail
		}
		item := html.NewElement("div", html.Attribute{Name: "class", Value: "result-item"})
		item.AppendChild(div)
		results.AppendChild(item)

		originals = append(originals, core.Asset{
			Path:        "/original/" + name,
			ContentType: "image/jpeg",
			Data:        syntheticBytes(int64(100+i), sizes[i]),
		})
	}
	return &core.Page{Path: WikimediaPath, Doc: doc, Originals: originals}
}

// articleBullets is the lossless bullet form of the §6.2 newspaper
// article. Sized so that the paper-style metadata accounting
// (bullets + name + 4) lands on 778 B.
var articleBullets = []string{
	"regional council approves new coastal protection plan after two year consultation",
	"scheme combines natural dune restoration with selective concrete reinforcement",
	"projected cost of ninety million over a decade funded jointly by state and region",
	"environmental groups praise dune work but question the harbor wall extension",
	"fishing cooperative warns construction may disturb spawning grounds in spring",
	"independent review panel will publish monitoring data twice a year",
	"first construction phase begins north of the estuary in january",
	"officials promise compensation scheme for affected shoreline businesses",
	"critics argue stronger storm modelling should have delayed final approval",
	"council leader calls vote a balanced answer to rising sea levels",
}

// exactBullets returns the article bullets padded/trimmed so that
// the prompt-form metadata accounting (bullets + name + 4 B) lands
// exactly on ArticleMetaBytes, the paper's 778 B.
func exactBullets(name string) []string {
	budget := ArticleMetaBytes - len(name) - 4
	out := make([]string, 0, len(articleBullets))
	total := 0
	for _, b := range articleBullets {
		if total+len(b) > budget {
			b = b[:budget-total]
		}
		if b != "" {
			out = append(out, b)
		}
		total += len(b)
		if total >= budget {
			return out
		}
	}
	// Pad the last bullet if the corpus fell short.
	for total < budget {
		out[len(out)-1] += "."
		total++
	}
	return out
}

// NewsArticle builds the §6.2 text-experiment page: one article of
// 2400 B that ships as bullet points. Returns the page; the original
// prose is attached for the traditional baseline.
func NewsArticle() *core.Page {
	article := articleProse()
	doc := html.Parse(`<!DOCTYPE html><html><head><title>Coastal protection plan approved</title></head><body><h1>Coastal protection plan approved</h1><div class="article-body"></div></body></html>`)
	body := doc.ByClass("article-body")[0]

	name := "coastal-article"
	gc := core.GeneratedContent{
		Type: core.ContentText,
		Meta: core.Metadata{
			Name:    name,
			Bullets: exactBullets(name),
			Words:   390, // ≈2400 B of prose
		},
	}
	div, err := gc.Div()
	if err != nil {
		panic(err)
	}
	body.AppendChild(div)

	return &core.Page{
		Path: ArticlePath,
		Doc:  doc,
		Originals: []core.Asset{{
			Path:        "/original/" + name,
			ContentType: "text/plain; charset=utf-8",
			Data:        []byte(article),
		}},
	}
}

// articleProse deterministically expands the bullets into exactly
// ArticleBytes bytes of prose — the "original" article.
func articleProse() string {
	var b strings.Builder
	for i, bullet := range articleBullets {
		sentence := strings.ToUpper(bullet[:1]) + bullet[1:]
		b.WriteString(sentence)
		b.WriteString(". ")
		if i%2 == 1 {
			b.WriteString("Local residents interviewed near the waterfront described the decision as long overdue given recent winter flooding. ")
		}
	}
	s := b.String()
	for len(s) < ArticleBytes {
		s += "Further details will be published alongside the council minutes. "
	}
	return s[:ArticleBytes]
}

// TravelBlog builds the §2.1 motivating page: "generic text about
// traveling and a few stock images of landscapes ... also ... unique
// content, such as the details of a specific hiking route or pictures
// taken during the hike." Stock images and generic text become
// prompts; the route photo and route details stay unique.
func TravelBlog() *core.Page {
	doc := html.Parse(`<!DOCTYPE html><html><head><title>Hiking the Hornspitze loop</title></head><body><article><h1>Hiking the Hornspitze loop</h1><section class="intro"></section><section class="gallery"></section><section class="route"><h2>The route</h2><p class="unique-text">Start at the Bergstation car park (1,630 m), follow trail 27 east past the chapel, and take the left fork at the Alm hut. The exposed section after the saddle has fixed cables. Allow 5h30 round trip; last bus down leaves at 18:05.</p><img src="/unique/hornspitze-summit.jpg" alt="Summit photo from our hike"></section></article></body></html>`)

	intro := doc.ByClass("intro")[0]
	introGC := core.GeneratedContent{
		Type: core.ContentText,
		Meta: core.Metadata{
			Name: "intro-text",
			Bullets: []string{
				"alpine hiking rewards early starts with quiet trails",
				"always check the weather forecast and pack layers",
				"the region offers huts serving warm food in season",
			},
			Words: 150,
		},
	}
	introDiv, err := introGC.Div()
	if err != nil {
		panic(err)
	}
	intro.AppendChild(introDiv)

	gallery := doc.ByClass("gallery")[0]
	stock := []string{
		"a panoramic alpine ridge line under morning fog, wide angle stock photograph",
		"hiking boots on a rocky mountain trail with wildflowers, shallow depth of field",
		"a wooden signpost at a mountain pass pointing toward several valley towns",
	}
	for i, prompt := range stock {
		gc := core.GeneratedContent{
			Type: core.ContentImage,
			Meta: core.Metadata{
				Prompt: prompt,
				Name:   fmt.Sprintf("stock-%d", i),
				Width:  256, Height: 256,
			},
		}
		div, err := gc.Div()
		if err != nil {
			panic(err)
		}
		gallery.AppendChild(div)
	}

	unique := core.Asset{
		Path:        "/unique/hornspitze-summit.jpg",
		ContentType: "image/jpeg",
		Data:        syntheticBytes(77, 48_000),
	}
	// Originals for the traditional baseline.
	originals := []core.Asset{
		{Path: "/original/intro-text", ContentType: "text/plain", Data: []byte(strings.Repeat("Generic travel introduction prose about alpine hiking, weather and huts. ", 13))},
		{Path: "/original/stock-0", ContentType: "image/jpeg", Data: syntheticBytes(201, 31_000)},
		{Path: "/original/stock-1", ContentType: "image/jpeg", Data: syntheticBytes(202, 28_500)},
		{Path: "/original/stock-2", ContentType: "image/jpeg", Data: syntheticBytes(203, 26_000)},
	}
	return &core.Page{
		Path:      TravelBlogPath,
		Doc:       doc,
		Unique:    []core.Asset{unique},
		Originals: originals,
	}
}

// LoadPagePath returns the path of the i-th load page.
func LoadPagePath(i int) string { return fmt.Sprintf("/load/page-%03d", i) }

// LoadPage builds the i-th page of the overload corpus: one
// generatable image and one generatable text block, no stored
// originals. With no originals, a traditional request can only be
// answered by server-side generation — exactly the expensive path the
// overload guard protects — and every page's asset names are unique,
// so generated-asset paths never collide across the corpus.
func LoadPage(i int) *core.Page {
	doc := html.Parse(fmt.Sprintf(`<!DOCTYPE html><html><head><title>Load page %03d</title></head><body><h1>Load page %03d</h1><div class="content"></div></body></html>`, i, i))
	content := doc.ByClass("content")[0]

	imgGC := core.GeneratedContent{
		Type: core.ContentImage,
		Meta: core.Metadata{
			Prompt: LandscapePrompt(i % WikimediaImageCount),
			Name:   fmt.Sprintf("load-%03d-img", i),
			Width:  128, Height: 128,
		},
	}
	imgDiv, err := imgGC.Div()
	if err != nil {
		panic(err)
	}
	content.AppendChild(imgDiv)

	txtGC := core.GeneratedContent{
		Type: core.ContentText,
		Meta: core.Metadata{
			Name: fmt.Sprintf("load-%03d-txt", i),
			Bullets: []string{
				fmt.Sprintf("synthetic load page number %d for the overload sweep", i),
				"each page forces one server-side generation when fetched traditionally",
			},
			Words: 60,
		},
	}
	txtDiv, err := txtGC.Div()
	if err != nil {
		panic(err)
	}
	content.AppendChild(txtDiv)

	return &core.Page{Path: LoadPagePath(i), Doc: doc}
}

// CDNPagePath returns the path of the i-th edge-tier page.
func CDNPagePath(i int) string { return fmt.Sprintf("/cdn/page-%03d", i) }

// CDNPage builds the i-th page of the E23 edge-tier corpus: a small
// static page with no placeholders and no assets, so a fetch through
// the edge tier measures cache and failover behaviour, not generation
// cost. The body carries a deterministic filler paragraph so pages
// have distinct, verifiable content and a realistic few-kB size.
func CDNPage(i int) *core.Page {
	filler := strings.Repeat(fmt.Sprintf("edge tier page %03d payload ", i), 40)
	doc := html.Parse(fmt.Sprintf(
		`<!DOCTYPE html><html><head><title>CDN page %03d</title></head><body><h1>CDN page %03d</h1><p>%s</p></body></html>`,
		i, i, filler))
	return &core.Page{Path: CDNPagePath(i), Doc: doc}
}

// PhotoGalleryPath serves the §2.2 upscaling page.
const PhotoGalleryPath = "/gallery/photos"

// PhotoGallery builds a §2.2 upscaling page: six *unique* photographs
// stored only at low resolution; clients with upscale ability receive
// the small files plus upscale directives and synthesize the
// high-resolution versions locally ("by using content upscaling, the
// storage requirements of unique content can be reduced as well").
func PhotoGallery() *core.Page {
	doc := html.Parse(`<!DOCTYPE html><html><head><title>Expedition photo gallery</title></head><body><h1>Expedition photos</h1><div class="photos"></div></body></html>`)
	photos := doc.ByClass("photos")[0]

	m, err := genai.ImageModelByName(imagegen.SD3Medium)
	if err != nil {
		panic(err)
	}
	var unique, originals []core.Asset
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("photo-%d", i)
		// The stored low-resolution version (a real decodable PNG).
		low, err := m.Generate(genai.ImageRequest{
			Prompt: fmt.Sprintf("expedition photograph %d, mountain camp at dusk", i),
			Width:  128, Height: 128,
			Seed:  int64(i + 500),
			Class: device.ClassWorkstation,
		})
		if err != nil {
			panic(err)
		}
		lowPath := fmt.Sprintf("/lowres/%s.png", name)
		unique = append(unique, core.Asset{Path: lowPath, ContentType: "image/png", Data: low.PNG})

		gc := core.GeneratedContent{
			Type: core.ContentUpscale,
			Meta: core.Metadata{
				Name:          name,
				Src:           lowPath,
				Scale:         4, // 128² → 512²
				OriginalBytes: 512 * 512 / 8,
			},
		}
		div, err := gc.Div()
		if err != nil {
			panic(err)
		}
		photos.AppendChild(div)

		// The full-resolution original for the traditional baseline.
		originals = append(originals, core.Asset{
			Path:        "/original/" + name,
			ContentType: "image/jpeg",
			Data:        syntheticBytes(int64(900+i), 512*512/8),
		})
	}
	return &core.Page{Path: PhotoGalleryPath, Doc: doc, Unique: unique, Originals: originals}
}

// Table 2 reference items.

// MediaItem is one Table 2 row: a piece of media with its nominal
// original size and its prompt form.
type MediaItem struct {
	Label   string
	Content core.GeneratedContent
	// OriginalBytes is Table 2's "Size[B]" column.
	OriginalBytes int
}

// table2Prompt is a 400-character prompt realizing the paper's
// worst-case metadata accounting (400 + 20 name + 8 = 428 B).
func table2Prompt() string {
	p := "a richly detailed photograph of a coastal lighthouse on a rocky promontory at dusk, waves breaking white against dark basalt, warm lamplight in the keeper cottage windows, long exposure smoothing the sea surface, dramatic layered clouds catching the last orange light, seabirds circling the tower, foreground tide pools reflecting the sky, natural colors"
	for len(p) < 400 {
		p += ", fine detail"
	}
	return p[:400]
}

// table2Name pads a name to the paper's 20 B name budget.
func table2Name(base string) string {
	for len(base) < 20 {
		base += "x"
	}
	return base[:20]
}

// Table2Items returns the four Table 2 rows.
func Table2Items() []MediaItem {
	img := func(label string, dim, size int) MediaItem {
		return MediaItem{
			Label:         label,
			OriginalBytes: size,
			Content: core.GeneratedContent{
				Type: core.ContentImage,
				Meta: core.Metadata{
					Prompt: table2Prompt(),
					Name:   table2Name(label),
					Width:  dim,
					Height: dim,
				},
			},
		}
	}
	// The 250-word text block: 1250 B original, 649 B metadata
	// (bullets 625 B + 20 B name + 4 B length).
	textBullets := makeBullets(625)
	return []MediaItem{
		img("small-image", 256, 8192),
		img("medium-image", 512, 32768),
		img("large-image", 1024, 131072),
		{
			Label:         "text-block-250w",
			OriginalBytes: 1250,
			Content: core.GeneratedContent{
				Type: core.ContentText,
				Meta: core.Metadata{
					Name:    table2Name("text-block"),
					Bullets: textBullets,
					Words:   250,
				},
			},
		},
	}
}

// makeBullets builds bullet points totalling exactly n bytes.
func makeBullets(n int) []string {
	base := []string{
		"municipal board reviews the updated zoning framework for riverside districts",
		"public hearing scheduled before the final vote next quarter",
		"independent auditors flag rising maintenance costs at two bridges",
		"new cycling corridor connects the station with the technical university",
		"heritage society requests protective status for the old granary",
		"transport authority pilots off peak fare discounts for six months",
		"flood defence upgrades move ahead after federal grant confirmation",
		"city archives digitise council minutes dating back to 1911",
	}
	var out []string
	total := 0
	for i := 0; total < n; i++ {
		b := base[i%len(base)]
		if total+len(b) > n {
			b = b[:n-total]
		}
		out = append(out, b)
		total += len(b)
	}
	return out
}

// SyntheticBytes returns n deterministic pseudorandom bytes standing
// in for compressed media (JPEG-like: incompressible).
func SyntheticBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// syntheticBytes is the historical internal spelling.
func syntheticBytes(seed int64, n int) []byte { return SyntheticBytes(seed, n) }

// PartitionBytes splits total into parts with realistic variation
// (±40% around the mean), each part at least 1 byte, summing exactly
// to total. It returns n parts when total ≥ n; for smaller totals it
// returns total one-byte parts (never zero or negative sizes — a
// clamp bug here used to panic syntheticBytes's make for totals small
// relative to n). Exported so loadgen can size small synthetic assets
// with the same generator the corpus uses.
func PartitionBytes(rng *rand.Rand, total, n int) []int {
	if n <= 0 || total <= 0 {
		return nil
	}
	if n > total {
		// Every part must hold at least one byte; fewer parts is the
		// only split that keeps both invariants.
		n = total
	}
	parts := make([]int, n)
	mean := total / n
	remaining := total
	for i := 0; i < n-1; i++ {
		v := mean + int(float64(mean)*(rng.Float64()-0.5)*0.8)
		// Leave at least one byte for each remaining part. Because
		// total ≥ n, remaining ≥ n-i entering this step, so the cap is
		// itself ≥ 1 and cannot undercut the floor below.
		if maxV := remaining - (n - 1 - i); v > maxV {
			v = maxV
		}
		if v < 1 {
			v = 1
		}
		parts[i] = v
		remaining -= v
	}
	parts[n-1] = remaining
	return parts
}

// partitionBytes is the historical internal spelling.
func partitionBytes(rng *rand.Rand, total, n int) []int {
	return PartitionBytes(rng, total, n)
}
