package imagegen

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"sync"
)

// EncodePNG is the one PNG encode site: generated images and
// client-side upscales both go through it. A paletted image — every
// generated one — takes encodeIndexed's fixed encoding. Any other
// image, and a paletted one that encoding cannot carry (empty, or a
// palette of none or over 256 entries), goes to the pooled image/png
// encoder at its default level, which reports what it cannot encode.
// That buffer is presized to w*h/2, which upscaled RGBA (0.2–0.9 B/px)
// may outgrow and bytes.Buffer absorbs.
func EncodePNG(img image.Image) ([]byte, error) {
	if p, ok := img.(*image.Paletted); ok && len(p.Palette) >= 1 && len(p.Palette) <= 256 && !p.Rect.Empty() {
		return encodeIndexed(p), nil
	}
	var buf bytes.Buffer
	b := img.Bounds()
	buf.Grow(b.Dx() * b.Dy() / 2)
	if err := pngEnc.Encode(&buf, img); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// pngEnc recycles the encoder's internal zlib and row buffers across
// encodes (png.Encode allocates them fresh per call). Encoding
// parameters are the defaults, so output bytes are identical to
// png.Encode's.
var pngEnc = png.Encoder{BufferPool: &pngBufferPool{}}

type pngBufferPool struct{ pool sync.Pool }

func (p *pngBufferPool) Get() *png.EncoderBuffer {
	b, _ := p.pool.Get().(*png.EncoderBuffer)
	return b // nil is fine: the encoder allocates on demand
}

func (p *pngBufferPool) Put(b *png.EncoderBuffer) { p.pool.Put(b) }

// pngFilterPaeth is PNG filter type 4: each byte less the Paeth
// predictor of its left, upper and upper-left neighbours.
const pngFilterPaeth = 4

// An indexedScratch is one indexed encode's working memory, recycled
// whole: the zlib writer (Reset per image, so its deflate state is
// built once), the filtered row, and the compressed stream.
type indexedScratch struct {
	zw   *zlib.Writer
	row  []byte // filter type, then the row's Paeth residuals
	idat bytes.Buffer
}

var indexedScratches = sync.Pool{New: func() any {
	sc := new(indexedScratch)
	sc.zw, _ = zlib.NewWriterLevel(&sc.idat, zlib.HuffmanOnly) // fails only for an invalid level
	return sc
}}

// encodeIndexed writes p as an 8-bit colour-type-3 PNG: IHDR, PLTE,
// tRNS when an entry is not opaque (as image/png writes it), one IDAT
// and IEND. Every row carries filter Paeth and the stream is deflated
// Huffman-only; neither is an option.
//
// image/png never filters a paletted image, because a palette is in
// general unordered and a difference of indices means nothing. A
// synthesized palette is ordered — index = rounded luminance − darkest
// — so Paeth leaves the small luminance residuals of a smooth texture,
// a narrow alphabet clustered at zero that deflate far better than the
// raw indices. The alphabet also sets the level: on it, any LZ77 match
// costs more bits than the literals it replaces, so Huffman coding
// alone is both the fastest deflate and the smallest, ~27% below Up
// rows at BestSpeed at 128² (DESIGN.md "Indexed images").
func encodeIndexed(p *image.Paletted) []byte {
	sc := indexedScratches.Get().(*indexedScratch)
	defer indexedScratches.Put(sc)
	w, h := p.Rect.Dx(), p.Rect.Dy()

	// Writes into a bytes.Buffer cannot fail, so neither can the zlib
	// writer's.
	sc.idat.Reset()
	sc.zw.Reset(&sc.idat)
	sc.row = resize(sc.row, 1+w)
	sc.row[0] = pngFilterPaeth
	f := sc.row[1:]
	// The first row is Paeth against a row of zeros, which predicts
	// every byte by its left neighbour: Sub.
	cur := p.Pix[:w]
	f[0] = cur[0]
	for x := 1; x < w; x++ {
		f[x] = cur[x] - cur[x-1]
	}
	sc.zw.Write(sc.row)
	for y := 1; y < h; y++ {
		prev := p.Pix[(y-1)*p.Stride:][:w]
		cur := p.Pix[y*p.Stride:][:w]
		f[0] = cur[0] - prev[0] // nothing to the left: Up
		for x := 1; x < w; x++ {
			f[x] = cur[x] - paeth(cur[x-1], prev[x], prev[x-1])
		}
		sc.zw.Write(sc.row)
	}
	sc.zw.Close()

	var plte [3 * 256]byte
	var alpha [256]byte
	trns := 0 // tRNS runs through the last entry that is not opaque
	for i, c := range p.Palette {
		n := color.NRGBAModel.Convert(c).(color.NRGBA)
		plte[3*i], plte[3*i+1], plte[3*i+2], alpha[i] = n.R, n.G, n.B, n.A
		if n.A != 0xff {
			trns = i + 1
		}
	}

	const chunk = 12 // length, type and CRC around a chunk's data
	size := len(pngSignature) + chunk + 13 + chunk + 3*len(p.Palette) + chunk + sc.idat.Len() + chunk
	if trns > 0 {
		size += chunk + trns
	}
	out := make([]byte, 0, size)
	out = append(out, pngSignature...)
	out, c := startChunk(out, "IHDR")
	out = binary.BigEndian.AppendUint32(out, uint32(w))
	out = binary.BigEndian.AppendUint32(out, uint32(h))
	out = append(out, 8, 3, 0, 0, 0) // 8-bit, paletted; deflate, adaptive filtering, no interlace
	out = endChunk(out, c)
	out, c = startChunk(out, "PLTE")
	out = append(out, plte[:3*len(p.Palette)]...)
	out = endChunk(out, c)
	if trns > 0 {
		out, c = startChunk(out, "tRNS")
		out = append(out, alpha[:trns]...)
		out = endChunk(out, c)
	}
	out, c = startChunk(out, "IDAT")
	out = append(out, sc.idat.Bytes()...)
	out = endChunk(out, c)
	out, c = startChunk(out, "IEND")
	return endChunk(out, c)
}

// paeth is the PNG Paeth predictor of a byte from its left (a), upper
// (b) and upper-left (c) neighbours: whichever of them is nearest
// a+b−c, ties going to a, then b. It selects with masks, not branches:
// which neighbour wins varies pixel to pixel across a texture, and a
// mispredicted branch per pixel costs more than the filter saves. It
// is written to fit the compiler's inlining budget (cost 80 of 80 with
// Go 1.24): called rather than inlined, it made a 128² encode ~30%
// slower.
func paeth(a, b, c uint8) uint8 {
	pa := int32(b) - int32(c) // p−a for p = a+b−c
	pb := int32(a) - int32(c) // p−b
	pc := max(pa+pb, -pa-pb)  // |p−c|
	pa, pb = max(pa, -pa), max(pb, -pb)
	// m is all ones where the test holds: take b where pb < pa, then c
	// where pc is below the nearer of the two.
	m := uint8((pb - pa) >> 31)
	pred := a ^ (a^b)&m
	m = uint8((pc - min(pa, pb)) >> 31)
	return pred ^ (pred^c)&m
}

const pngSignature = "\x89PNG\r\n\x1a\n"

// startChunk appends a chunk header of type typ with its length left
// blank, and returns where the chunk starts for endChunk.
func startChunk(b []byte, typ string) (out []byte, start int) {
	start = len(b)
	return append(append(b, 0, 0, 0, 0), typ...), start
}

// endChunk fills in the length of the chunk at start from what was
// appended since, and appends the CRC of its type and data.
func endChunk(b []byte, start int) []byte {
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-8))
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start+4:]))
}
