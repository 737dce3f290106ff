package imagegen

import (
	"bytes"
	"encoding/binary"
	"hash/adler32"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"math/bits"
	"slices"
	"sync"
)

// EncodePNG encodes an image, the client-side upscales among them. A
// paletted image takes encodeIndexed's fixed encoding, the one Generate
// writes from the rows synthesis filtered. Any other image, and a
// paletted one that encoding cannot carry (empty, or a palette of none
// or over 256 entries), goes to the pooled image/png encoder at its
// default level, which reports what it cannot encode.
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

// The deflate block encodeIndexed writes holds literals only, so its
// literal/length alphabet is the 256 bytes and end of block.
const (
	endOfBlock = 256
	numLit     = endOfBlock + 1
	maxLitBits = 15 // deflate's bound on a literal code's length
	maxCLBits  = 7  // and on a code-length code's
)

// clOrder is the order in which a block header lists the code-length
// code's lengths (RFC 1951 §3.2.7).
var clOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// An indexedScratch is one indexed encode's working memory, recycled
// whole, so that an encode allocates its PNG and nothing else.
type indexedScratch struct {
	rows []byte         // each row's filter type, then its Paeth residuals
	hist [4][256]uint32 // rows counted four ways, a byte to each in turn
	freq [numLit]uint32 // the literal code's frequencies
	// lens is the literal code's lengths, then the distance code's one:
	// the sequence the block header run-length codes as tokens, each a
	// code-length symbol with its extra bits above bit 5.
	lens    [numLit + 1]uint8
	tokens  [numLit + 1]uint16
	ntok    int
	codes   [numLit]uint32 // see canonical
	clFreq  [19]uint32
	clLens  [19]uint8
	clCodes [19]uint32
	ncl     int // the code-length code's lengths the header lists
	huff    huffBuilder
}

var indexedScratches = sync.Pool{New: func() any { return new(indexedScratch) }}

// encodeIndexed writes p as an 8-bit colour-type-3 PNG: IHDR, PLTE,
// tRNS when an entry is not opaque (as image/png writes it), one IDAT
// and IEND. Every row carries filter Paeth and the stream is one
// Huffman-only deflate block; neither is an option.
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
//
// Without matches a deflate stream is a histogram, two codes and the
// literals, so encodeIndexed writes it itself: filterRow filters and
// counts each row into the scratch, and encode builds the codes, sizes
// the PNG exactly from the counts and writes each byte once. A
// synthesized image's rows are filtered as its pixels are written, so
// Generate calls encode alone.
func encodeIndexed(p *image.Paletted) []byte {
	sc := indexedScratches.Get().(*indexedScratch)
	defer indexedScratches.Put(sc)
	w, h := p.Rect.Dx(), p.Rect.Dy()
	sc.start(w, h)
	var prev []byte
	for y := 0; y < h; y++ {
		cur := p.Pix[y*p.Stride:][:w]
		sc.filterRow(y, cur, prev)
		prev = cur
	}
	return sc.encode(p)
}

// start readies sc for the rows of a w×h image.
func (sc *indexedScratch) start(w, h int) {
	sc.rows = resize(sc.rows, h*(1+w))
	clear(sc.hist[:])
}

// filterRow writes row y, cur, into sc.rows as its filter type and its
// Paeth residuals against prev, the row above (nil for the first), and
// counts them: byte i of the filtered row in hist[i%4], so that a run
// of one byte — the common residual 0 — does not wait on its own
// increments.
func (sc *indexedScratch) filterRow(y int, cur, prev []byte) {
	w := len(cur)
	out := sc.rows[y*(1+w):][:1+w]
	out[0] = pngFilterPaeth
	f := out[1:]
	if prev == nil {
		// The first row is Paeth against a row of zeros, which predicts
		// every byte by its left neighbour: Sub.
		f[0] = cur[0]
		for x := 1; x < w; x++ {
			f[x] = cur[x] - cur[x-1]
		}
	} else {
		prev = prev[:w]
		f[0] = cur[0] - prev[0] // nothing to the left: Up
		for x := 1; x < w; x++ {
			f[x] = cur[x] - paeth(cur[x-1], prev[x], prev[x-1])
		}
	}
	hist := &sc.hist
	for ; len(out) >= 4; out = out[4:] {
		hist[0][out[0]]++
		hist[1][out[1]]++
		hist[2][out[2]]++
		hist[3][out[3]]++
	}
	for i, b := range out {
		hist[i][b]++
	}
}

// lowerFirst subtracts k from the first residual of the first row, the
// one residual that is a pixel rather than a difference of pixels, and
// moves its count.
func (sc *indexedScratch) lowerFirst(k uint8) {
	b := &sc.rows[1]
	sc.hist[1][*b]--
	*b -= k
	sc.hist[1][*b]++
}

// encode writes the PNG of p, whose rows filterRow has filled and
// counted into sc.
func (sc *indexedScratch) encode(p *image.Paletted) []byte {
	w, h := p.Rect.Dx(), p.Rect.Dy()
	block := (sc.buildCodes() + 7) / 8

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

	const chunk = 12      // length, type and CRC around a chunk's data
	idat := 2 + block + 4 // zlib header, the block, Adler-32
	size := len(pngSignature) + chunk + 13 + chunk + 3*len(p.Palette) + chunk + idat + chunk
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
	out = append(out, 0x78, 0x01) // what compress/zlib writes at HuffmanOnly
	out = sc.writeBlock(out, block)
	out = binary.BigEndian.AppendUint32(out, adler32.Checksum(sc.rows))
	out = endChunk(out, c)
	out, c = startChunk(out, "IEND")
	return endChunk(out, c)
}

// buildCodes builds the block's codes from the rows' counts: the
// literal code, the run-length coded lengths of it and of the distance
// code, and the code-length code those are written in. It returns the
// block's size in bits.
func (sc *indexedScratch) buildCodes() int {
	for s := range 256 {
		sc.freq[s] = sc.hist[0][s] + sc.hist[1][s] + sc.hist[2][s] + sc.hist[3][s]
	}
	sc.freq[endOfBlock] = 1
	sc.huff.lengths(sc.freq[:], sc.lens[:numLit], maxLitBits)
	canonical(sc.lens[:numLit], sc.codes[:])
	// One distance code of one bit, which nothing uses: a block must
	// have a distance code, and a lone code may leave the other unused.
	sc.lens[numLit] = 1

	// Run-length code the lengths: 16 repeats the previous length 3–6
	// times, 17 and 18 repeat zero 3–10 and 11–138 times.
	sc.ntok = 0
	emit := func(sym, extra int) {
		sc.tokens[sc.ntok] = uint16(sym | extra<<5)
		sc.ntok++
	}
	for lens := sc.lens[:]; len(lens) > 0; {
		v, run := int(lens[0]), 1
		for run < len(lens) && int(lens[run]) == v {
			run++
		}
		lens = lens[run:]
		if v != 0 {
			emit(v, 0)
			for run--; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		} else {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		}
		for ; run > 0; run-- {
			emit(v, 0)
		}
	}
	clear(sc.clFreq[:])
	for _, t := range sc.tokens[:sc.ntok] {
		sc.clFreq[t&31]++
	}
	sc.huff.lengths(sc.clFreq[:], sc.clLens[:], maxCLBits)
	canonical(sc.clLens[:], sc.clCodes[:])
	for sc.ncl = len(clOrder); sc.ncl > 4 && sc.clLens[clOrder[sc.ncl-1]] == 0; sc.ncl-- {
	}

	size := 3 + 5 + 5 + 4 + 3*sc.ncl // BFINAL, BTYPE, HLIT, HDIST, HCLEN, the code-length code
	for _, t := range sc.tokens[:sc.ntok] {
		size += int(sc.clLens[t&31]) + clExtraBits(t&31)
	}
	for s, n := range sc.freq {
		size += int(n) * int(sc.lens[s])
	}
	return size
}

// clExtraBits is the number of extra bits after code-length symbol s.
func clExtraBits(s uint16) int {
	switch s {
	case 16:
		return 2
	case 17:
		return 3
	case 18:
		return 7
	}
	return 0
}

// writeBlock appends the block buildCodes sized, n bytes, to out:
// one final block with dynamic codes, its literals sc.rows, then end of
// block. It writes eight bytes at a time, so out's capacity must run at
// least seven bytes past the block's end; in a PNG the Adler-32, a CRC
// and IEND follow it.
func (sc *indexedScratch) writeBlock(out []byte, n int) []byte {
	bw := bitWriter{b: out[:cap(out)], pos: len(out)}
	bw.put(1|2<<1, 3)     // final; dynamic codes
	bw.put(numLit-257, 5) // HLIT
	bw.put(0, 5)          // HDIST: one distance code
	bw.put(uint64(sc.ncl-4), 4)
	for _, s := range clOrder[:sc.ncl] {
		bw.put(uint64(sc.clLens[s]), 3)
	}
	for _, t := range sc.tokens[:sc.ntok] {
		bw.putCode(sc.clCodes[t&31])
		bw.put(uint64(t>>5), uint(clExtraBits(t&31)))
	}

	// The literals, four to a store while no code is longer than 14
	// bits, else three: after a store at most 7 bits wait, and four
	// codes add at most 56, three at most 45.
	bw.flush()
	acc, nb, pos, b := bw.acc, bw.n, bw.pos, bw.b
	rows := sc.rows
	if slices.Max(sc.lens[:numLit]) <= 14 {
		for ; len(rows) >= 4; rows = rows[4:] {
			c0, c1, c2, c3 := sc.codes[rows[0]], sc.codes[rows[1]], sc.codes[rows[2]], sc.codes[rows[3]]
			acc |= uint64(c0&0xffff) << nb
			nb += uint(c0 >> 16)
			acc |= uint64(c1&0xffff) << nb
			nb += uint(c1 >> 16)
			acc |= uint64(c2&0xffff) << nb
			nb += uint(c2 >> 16)
			acc |= uint64(c3&0xffff) << nb
			nb += uint(c3 >> 16)
			binary.LittleEndian.PutUint64(b[pos:], acc)
			pos += int(nb >> 3)
			acc >>= nb &^ 7
			nb &= 7
		}
	}
	for ; len(rows) >= 3; rows = rows[3:] {
		c0, c1, c2 := sc.codes[rows[0]], sc.codes[rows[1]], sc.codes[rows[2]]
		acc |= uint64(c0&0xffff) << nb
		nb += uint(c0 >> 16)
		acc |= uint64(c1&0xffff) << nb
		nb += uint(c1 >> 16)
		acc |= uint64(c2&0xffff) << nb
		nb += uint(c2 >> 16)
		binary.LittleEndian.PutUint64(b[pos:], acc)
		pos += int(nb >> 3)
		acc >>= nb &^ 7
		nb &= 7
	}
	bw.acc, bw.n, bw.pos = acc, nb, pos
	for _, r := range rows {
		bw.putCode(sc.codes[r])
	}
	bw.putCode(sc.codes[endOfBlock])
	bw.flush()
	if bw.n > 0 {
		bw.pos++ // the last byte's high bits pad the block
	}
	if bw.pos != len(out)+n {
		panic("imagegen: deflate block is not the size its codes give")
	}
	return b[:bw.pos]
}

// A bitWriter packs bits into b from pos on, each byte from its low
// bit, as deflate does.
type bitWriter struct {
	b   []byte
	pos int
	acc uint64 // bits not yet stored, n of them
	n   uint
}

// put writes the low n ≤ 16 bits of v.
func (w *bitWriter) put(v uint64, n uint) {
	w.acc |= v << w.n
	w.n += n
	if w.n >= 32 {
		w.flush()
	}
}

// putCode writes a code as canonical returns it.
func (w *bitWriter) putCode(c uint32) { w.put(uint64(c&0xffff), uint(c>>16)) }

// flush stores acc and keeps only the bits of its last, partial byte.
func (w *bitWriter) flush() {
	binary.LittleEndian.PutUint64(w.b[w.pos:], w.acc)
	w.pos += int(w.n >> 3)
	w.acc >>= w.n &^ 7
	w.n &= 7
}

// canonical sets codes[s] to symbol s's code in the canonical code of
// lens (RFC 1951 §3.2.2): bit-reversed, since deflate stores a code
// from its top bit into a stream filled from each byte's low bit, with
// its length above bit 16. A symbol of length 0 keeps what it held.
func canonical(lens []uint8, codes []uint32) {
	var count, next [maxLitBits + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	code := uint16(0)
	for l := 1; l <= maxLitBits; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lens {
		if l != 0 {
			codes[s] = uint32(bits.Reverse16(next[l])>>(16-l)) | uint32(l)<<16
			next[l]++
		}
	}
}

// A huffBuilder builds length-limited Huffman codes in arrays it keeps
// for the next code.
type huffBuilder struct {
	leaves [numLit]uint64       // a symbol's frequency above bit 16, the symbol below
	node   [2*numLit - 1]uint32 // a node's weight, then its depth
	parent [2*numLit - 1]uint16 // a node's parent, which is made after it
	count  [maxLitBits + 1]int  // codes of each length
}

// lengths sets lens[s] to the length of symbol s's code in a Huffman
// code for freq whose codes are at most limit bits long, and to 0
// where freq[s] is 0. At least one frequency is not 0. The code is
// complete, as inflaters require: a lone symbol gets a 1-bit code, and
// another symbol the other.
func (b *huffBuilder) lengths(freq []uint32, lens []uint8, limit int) {
	leaves := b.leaves[:0]
	for s, f := range freq {
		lens[s] = 0
		if f != 0 {
			leaves = append(leaves, uint64(f)<<16|uint64(s))
		}
	}
	n := len(leaves)
	if n == 1 {
		s := int(leaves[0] & 0xffff)
		lens[s], lens[min(s, 1)^1] = 1, 1
		return
	}
	slices.Sort(leaves)

	// Merge the two lightest of two ascending queues, the leaves and
	// the nodes in the order they are made. A tie takes the leaf, which
	// keeps the tree shallow.
	w, parent := b.node[:2*n-1], b.parent[:2*n-1]
	for i, l := range leaves {
		w[i] = uint32(l >> 16)
	}
	leaf, inner := 0, n
	for next := n; next < len(w); next++ {
		w[next] = 0
		for range 2 {
			m := inner
			if leaf < n && (inner == next || w[leaf] <= w[inner]) {
				m = leaf
				leaf++
			} else {
				inner++
			}
			w[next] += w[m]
			parent[m] = uint16(next)
		}
	}
	// Depths, from the root (the last node) down.
	w[len(w)-1] = 0
	for i := len(w) - 2; i >= 0; i-- {
		w[i] = w[parent[i]] + 1
	}

	// Count the leaves at each length, those deeper than limit at limit.
	// That over-subscribes the code (its Kraft sum, in units of
	// 2^−limit, exceeds 2^limit): move leaves from the deepest length
	// short of limit one level down until it fits, then, if that left
	// room, leaves from the deepest length one level up until it is
	// complete. Each step up adds a unit the room is a multiple of.
	clear(b.count[:])
	for _, d := range w[:n] {
		b.count[min(int(d), limit)]++
	}
	kraft := 0
	for l := 1; l <= limit; l++ {
		kraft += b.count[l] << (limit - l)
	}
	for kraft > 1<<limit {
		l := limit - 1
		for b.count[l] == 0 {
			l--
		}
		b.count[l]--
		b.count[l+1]++
		kraft -= 1 << (limit - l - 1)
	}
	for kraft < 1<<limit {
		l := limit
		for b.count[l] == 0 {
			l--
		}
		b.count[l]--
		b.count[l-1]++
		kraft += 1 << (limit - l)
	}

	// The rarest symbols take the longest codes.
	i := 0
	for l := limit; l > 0; l-- {
		for range b.count[l] {
			lens[leaves[i]&0xffff] = uint8(l)
			i++
		}
	}
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
