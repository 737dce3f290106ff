package hpack

// maxTableUpdatesPerBlock caps dynamic table size updates in one
// header block. A compliant encoder needs at most two (an intermediate
// reduction followed by the final size, RFC 7541 §4.2); more is either
// corruption or a CPU-burn attack cycling the table through evictions.
const maxTableUpdatesPerBlock = 2

// A Decoder parses header block fragments into header fields.
// It is not safe for concurrent use.
type Decoder struct {
	table dynamicTable

	// maxAllowed is the ceiling for dynamic table size updates: the
	// value this endpoint advertised in SETTINGS_HEADER_TABLE_SIZE.
	maxAllowed uint32

	// maxString bounds individual decoded string literals.
	maxString int

	// maxList bounds the total decoded header list per block, measured
	// in RFC 7541 §4.1 entry sizes (name + value + 32 per field). This
	// is the decompression-bomb ceiling: a block of one-byte indexed
	// references to a table-sized entry otherwise amplifies input bytes
	// into output by three orders of magnitude.
	maxList int

	// huff is the Huffman expansion scratch, reused across literals.
	huff []byte
}

// maxHuffScratch is the largest Huffman scratch a decoder keeps between
// literals.
const maxHuffScratch = 4 << 10

// NewDecoder returns a decoder whose dynamic table is capped at
// DefaultTableSize and whose string literals are capped at maxString
// bytes (0 means a permissive 1 MiB default). The total decoded
// header list per block is capped at 1 MiB; see SetMaxHeaderListBytes.
func NewDecoder(maxString int) *Decoder {
	if maxString <= 0 {
		maxString = 1 << 20
	}
	d := &Decoder{maxString: maxString, maxList: 1 << 20}
	d.table.maxSize = DefaultTableSize
	d.maxAllowed = DefaultTableSize
	return d
}

// SetMaxHeaderListBytes bounds the total decoded header list of one
// block (sum of RFC 7541 §4.1 entry sizes). Values ≤ 0 restore the
// 1 MiB default.
func (d *Decoder) SetMaxHeaderListBytes(n int) {
	if n <= 0 {
		n = 1 << 20
	}
	d.maxList = n
}

// SetMaxDynamicTableSize raises or lowers the ceiling the peer's
// table-size updates may use. Call when this endpoint changes its
// SETTINGS_HEADER_TABLE_SIZE.
func (d *Decoder) SetMaxDynamicTableSize(n uint32) {
	d.maxAllowed = n
	if d.table.maxSize > n {
		d.table.setMaxSize(n)
	}
}

// Decode parses a complete header block and returns the header list.
// Dynamic table size updates are honored only at the start of the
// block, per RFC 7541 §4.2.
func (d *Decoder) Decode(block []byte) ([]HeaderField, error) {
	return d.DecodeAppend(nil, block)
}

// DecodeAppend is Decode into caller-owned storage: the block's fields
// are appended to dst and the extended slice returned, so a caller that
// reuses dst across blocks decodes without allocating a list. dst's
// existing elements are never written; on error the result is dst
// unchanged. The decoded strings are not backed by block.
func (d *Decoder) DecodeAppend(dst []HeaderField, block []byte) ([]HeaderField, error) {
	base := len(dst)
	sawField := false
	listBytes := 0
	tableUpdates := 0
	for len(block) > 0 {
		var (
			f     HeaderField
			err   error
			index bool
		)
		b := block[0]
		switch {
		case b&0x80 != 0: // indexed field, §6.1
			var idx uint64
			if idx, block, err = readInteger(block, 7); err == nil {
				f, err = tableEntry(&d.table, idx)
			}

		case b&0xc0 == 0x40: // literal with incremental indexing, §6.2.1
			f, block, err = d.readLiteral(block, 6)
			index = true

		case b&0xe0 == 0x20: // dynamic table size update, §6.3
			if sawField {
				return dst[:base], ErrTableSizeUpdate
			}
			tableUpdates++
			if tableUpdates > maxTableUpdatesPerBlock {
				return dst[:base], ErrTableSizeUpdate
			}
			var size uint64
			if size, block, err = readInteger(block, 5); err != nil {
				return dst[:base], err
			}
			if size > uint64(d.maxAllowed) {
				return dst[:base], ErrTableSizeUpdate
			}
			d.table.setMaxSize(uint32(size))
			continue

		case b&0xf0 == 0x10: // never indexed, §6.2.3
			f, block, err = d.readLiteral(block, 4)
			f.Sensitive = true

		default: // literal without indexing, §6.2.2 (pattern 0000)
			f, block, err = d.readLiteral(block, 4)
		}
		if err != nil {
			return dst[:base], err
		}
		listBytes += int(f.Size())
		if listBytes > d.maxList {
			return dst[:base], ErrHeaderListTooLarge
		}
		if index {
			d.table.add(f)
		}
		dst = append(dst, f)
		sawField = true
	}
	return dst, nil
}

func (d *Decoder) readLiteral(block []byte, prefix uint8) (HeaderField, []byte, error) {
	nameIdx, rest, err := readInteger(block, prefix)
	if err != nil {
		return HeaderField{}, nil, err
	}
	var f HeaderField
	if nameIdx != 0 {
		ref, err := tableEntry(&d.table, nameIdx)
		if err != nil {
			return HeaderField{}, nil, err
		}
		f.Name = ref.Name
	} else {
		f.Name, rest, err = d.readString(rest)
		if err != nil {
			return HeaderField{}, nil, err
		}
	}
	f.Value, rest, err = d.readString(rest)
	if err != nil {
		return HeaderField{}, nil, err
	}
	return f, rest, nil
}

func (d *Decoder) readString(buf []byte) (string, []byte, error) {
	if len(buf) == 0 {
		return "", nil, ErrTruncated
	}
	huffman := buf[0]&0x80 != 0
	n, rest, err := readInteger(buf, 7)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(d.maxString) {
		return "", nil, ErrStringTooLong
	}
	if uint64(len(rest)) < n {
		return "", nil, ErrTruncated
	}
	raw := rest[:n]
	rest = rest[n:]
	if !huffman {
		return string(raw), rest, nil
	}
	// Bound the decode itself, not just the result: the limit stops
	// the expansion mid-stream instead of allocating the whole bomb
	// first and measuring it afterwards. The expansion goes through
	// decoder-owned scratch, so a Huffman literal costs its string and
	// nothing else.
	d.huff, err = decodeHuffmanBounded(d.huff[:0], raw, d.maxString)
	if err != nil {
		return "", nil, err
	}
	s := string(d.huff)
	if cap(d.huff) > maxHuffScratch {
		d.huff = nil // one long literal must not pin its buffer for the connection's life
	}
	return s, rest, nil
}

// DynamicTableSize returns the current size in bytes of the decoder's
// dynamic table, for diagnostics.
func (d *Decoder) DynamicTableSize() uint32 { return d.table.size }
