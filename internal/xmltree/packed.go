package xmltree

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"unsafe"
)

// Packed (ROXD v2) is the one on-disk form of a shredded document: shredding
// large XML is far more expensive than reading back the columnar node table,
// so tools persist the shredded form (the moral equivalent of MonetDB's BAT
// storage). Every column lives in its own page-aligned, fixed-width section
// that readers can use zero-copy — the mapped file IS the node table. See the
// "On-disk store and persistent indices" section of DESIGN.md for the full
// layout and lifetime rules. (DecodePacked refuses a version 1 header by
// name: that sequential stream format is no longer read.)
//
// File layout (all integers little endian):
//
//	header:
//	  magic "ROXD" | version u8 = 2 | pad [3]u8
//	  docName   u32 length + bytes
//	  nodeCount u32
//	  sectionCount u32
//	  directory: per section, u32 name length + bytes, offset u64, length u64
//	sections, each starting at a 4096-byte-aligned offset, zero padded between:
//	  "kinds"              [n]u8
//	  "sizes" "levels" "names" "values" "parents"   [n]i32
//	  "qn.off"  [qnameCount+1]u32   offsets into qn.blob
//	  "qn.blob" concatenated qname bytes
//	  "val.off" "val.blob"          the value dictionary, same shape
//	  ...plus any extra sections the packer appends (package index persists
//	  its postings this way; xmltree treats them as opaque bytes)
//
// The dictionary offset tables make string access zero-copy too: string i is
// blob[off[i]:off[i+1]], materialized as an unsafe string header pointing
// into the mapped region. Only the per-dictionary lookup maps are rebuilt on
// open (O(dictionary size), not O(nodes)).

const (
	packedMagic   = "ROXD"
	packedVersion = 2
	packedPage    = 4096

	// maxNodes/maxString bound what a header may claim so a corrupt or
	// hostile file cannot ask for gigabytes.
	maxNodes  = 1 << 30
	maxString = 1 << 28
)

// Core section names of the v2 container. Extra sections (e.g. the
// persistent indices of package index) use their own prefixed names.
const (
	secKinds   = "kinds"
	secSizes   = "sizes"
	secLevels  = "levels"
	secNames   = "names"
	secValues  = "values"
	secParents = "parents"
	secQNOff   = "qn.off"
	secQNBlob  = "qn.blob"
	secValOff  = "val.off"
	secValBlob = "val.blob"
)

// Section is one named byte range of a packed file. Extra sections ride
// along with the document columns; xmltree does not interpret their data.
type Section struct {
	Name string
	Data []byte
}

// FormatError reports a structurally invalid ROXD input: bad magic, an
// unsupported version, a truncated or missing section, or an inconsistent
// directory. It is typed so callers can distinguish "this file is not a
// valid shredded document" from I/O failures with errors.As.
type FormatError struct {
	Version int    // format version, when it could be read (0 otherwise)
	Section string // section or header field being decoded, "" for the header
	Msg     string
	Err     error // underlying cause (io.ErrUnexpectedEOF etc.), may be nil
}

// Error renders the failure with its location inside the format.
func (e *FormatError) Error() string {
	where := "header"
	if e.Section != "" {
		where = "section " + e.Section
	}
	if e.Err != nil {
		return fmt.Sprintf("xmltree: invalid ROXD (%s): %s: %v", where, e.Msg, e.Err)
	}
	return fmt.Sprintf("xmltree: invalid ROXD (%s): %s", where, e.Msg)
}

// Unwrap exposes the underlying cause for errors.Is chains.
func (e *FormatError) Unwrap() error { return e.Err }

// formatErr builds a FormatError; low-level read failures (io.EOF from a
// short file) are normalized to io.ErrUnexpectedEOF so a truncated input is
// never reported as a bare EOF.
func formatErr(version int, section, msg string, err error) *FormatError {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return &FormatError{Version: version, Section: section, Msg: msg, Err: err}
}

// hostLittle reports whether this machine is little endian — the condition
// (together with alignment) for reading column sections zero-copy.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// alignedTo reports whether the backing array of b starts at an n-byte
// boundary. Sections of a mapped file are page aligned, but a decode over an
// arbitrary heap buffer must check before casting.
func alignedTo(b []byte, n int) bool {
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%uintptr(n) == 0
}

// AsInt32s views b as little-endian int32s — zero-copy when the host is
// little endian and b is 4-byte aligned, decoded into a fresh slice
// otherwise. Fails if len(b) is not a multiple of 4.
func AsInt32s(b []byte) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("xmltree: int32 section length %d not a multiple of 4", len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	if hostLittle && alignedTo(b, 4) {
		return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4), nil
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// AsUint32s is AsInt32s for uint32 sections (dictionary and posting offset
// tables).
func AsUint32s(b []byte) ([]uint32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("xmltree: uint32 section length %d not a multiple of 4", len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	if hostLittle && alignedTo(b, 4) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4), nil
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out, nil
}

// AsUint64s views b as little-endian uint64s (composite index keys).
func AsUint64s(b []byte) ([]uint64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("xmltree: uint64 section length %d not a multiple of 8", len(b))
	}
	if len(b) == 0 {
		return nil, nil
	}
	if hostLittle && alignedTo(b, 8) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8), nil
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out, nil
}

// AsFloat64s views b as little-endian float64s (the sorted numeric value
// auxiliary).
func AsFloat64s(b []byte) ([]float64, error) {
	u, err := AsUint64s(b)
	if err != nil {
		return nil, fmt.Errorf("xmltree: float64 section: %w", err)
	}
	if len(u) == 0 {
		return nil, nil
	}
	if hostLittle && alignedTo(b, 8) {
		// The uint64 view was zero-copy; reinterpret the same memory.
		return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(u))), len(u)), nil
	}
	out := make([]float64, len(u))
	for i, v := range u {
		out[i] = *(*float64)(unsafe.Pointer(&v))
	}
	return out, nil
}

// Int32sBytes encodes vals as a little-endian int32 section — zero-copy on
// little-endian hosts (the returned bytes alias vals), encoded otherwise.
func Int32sBytes(vals []int32) []byte {
	if len(vals) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 4*len(vals))
	}
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

// Uint32sBytes encodes vals as a little-endian uint32 section.
func Uint32sBytes(vals []uint32) []byte {
	if len(vals) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 4*len(vals))
	}
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// Uint64sBytes encodes vals as a little-endian uint64 section.
func Uint64sBytes(vals []uint64) []byte {
	if len(vals) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
	}
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], v)
	}
	return out
}

// Float64sBytes encodes vals as a little-endian float64 section.
func Float64sBytes(vals []float64) []byte {
	if len(vals) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
	}
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], *(*uint64)(unsafe.Pointer(&v)))
	}
	return out
}

// dictSections encodes d as an offset table + concatenated blob. The offset
// table is u32, so a blob past 4 GiB is unrepresentable: the sum of the
// values is unbounded, and wrapping offsets would silently emit a corrupt
// container.
func dictSections(d *Dict, offName, blobName string) ([]Section, error) {
	off := make([]uint32, d.Len()+1)
	var total uint64
	for i := 0; i < d.Len(); i++ {
		total += uint64(len(d.String(int32(i))))
	}
	if total > math.MaxUint32 {
		return nil, fmt.Errorf("xmltree: dictionary blob %s is %d bytes, beyond what u32 offsets address", blobName, total)
	}
	blob := make([]byte, 0, total)
	for i := 0; i < d.Len(); i++ {
		off[i] = uint32(len(blob))
		blob = append(blob, d.String(int32(i))...)
	}
	off[d.Len()] = uint32(len(blob))
	return []Section{{offName, Uint32sBytes(off)}, {blobName, blob}}, nil
}

// coreSections lists the document's own sections in canonical order.
func coreSections(d *Document) ([]Section, error) {
	kinds := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(d.kinds))), len(d.kinds))
	secs := []Section{
		{secKinds, kinds},
		{secSizes, Int32sBytes(d.sizes)},
		{secLevels, Int32sBytes(d.levels)},
		{secNames, Int32sBytes(d.names)},
		{secValues, Int32sBytes(d.values)},
		{secParents, Int32sBytes(d.parents)},
	}
	qn, err := dictSections(d.qnames, secQNOff, secQNBlob)
	if err != nil {
		return nil, err
	}
	vals, err := dictSections(d.vals, secValOff, secValBlob)
	if err != nil {
		return nil, err
	}
	secs = append(secs, qn...)
	secs = append(secs, vals...)
	return secs, nil
}

// WritePacked writes d as a ROXD v2 packed container, appending the extra
// sections (typically the persistent indices built by package index) after
// the document columns. Output is byte-deterministic for a given document
// and extra-section list.
func WritePacked(w io.Writer, d *Document, extra []Section) error {
	// A segmented append-path document persists in its flattened form: the
	// container's column sections are single-segment by construction.
	d = d.Flatten()
	if err := d.Validate(); err != nil {
		return fmt.Errorf("xmltree: refusing to pack invalid document: %w", err)
	}
	core, err := coreSections(d)
	if err != nil {
		return err
	}
	secs := append(core, extra...)

	// Directory geometry: header length decides the first section offset.
	headerLen := 4 + 1 + 3 + 4 + len(d.name) + 4 + 4
	for _, s := range secs {
		headerLen += 4 + len(s.Name) + 8 + 8
	}
	offsets := make([]uint64, len(secs))
	pos := uint64(alignUp(headerLen))
	for i, s := range secs {
		offsets[i] = pos
		pos = uint64(alignUp(int(pos) + len(s.Data)))
	}

	var hdr []byte
	hdr = append(hdr, packedMagic...)
	hdr = append(hdr, packedVersion, 0, 0, 0)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(d.name)))
	hdr = append(hdr, d.name...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.Len()))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(secs)))
	for i, s := range secs {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(s.Name)))
		hdr = append(hdr, s.Name...)
		hdr = binary.LittleEndian.AppendUint64(hdr, offsets[i])
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(s.Data)))
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	written := len(hdr)
	for i, s := range secs {
		if err := writePad(w, int(offsets[i])-written); err != nil {
			return err
		}
		if _, err := w.Write(s.Data); err != nil {
			return err
		}
		written = int(offsets[i]) + len(s.Data)
	}
	return nil
}

func alignUp(n int) int {
	return (n + packedPage - 1) &^ (packedPage - 1)
}

var padZeros [packedPage]byte

func writePad(w io.Writer, n int) error {
	if n <= 0 {
		return nil
	}
	_, err := w.Write(padZeros[:n])
	return err
}

// Packed is an open ROXD v2 container: the decoded document (columns
// pointing straight into the underlying bytes wherever the platform allows)
// plus the named extra sections for other packages to consume. The document
// and every section slice alias the container bytes; they stay valid as long
// as the Document is reachable (a mapped container unmaps itself when the
// Document is collected — see OpenPackedFile).
type Packed struct {
	doc      *Document
	sections map[string][]byte
	secNames []string // directory order, for deterministic listings
}

// Doc returns the decoded document.
func (p *Packed) Doc() *Document { return p.doc }

// Section returns the named extra section, or nil when absent.
func (p *Packed) Section(name string) []byte { return p.sections[name] }

// SectionNames lists every section in directory order.
func (p *Packed) SectionNames() []string { return append([]string(nil), p.secNames...) }

// Verify runs the full structural validation of the decoded document — the
// O(n) check DecodePacked deliberately skips (packed files are produced by
// WritePacked, which validates before writing; Verify is for tools like
// roxpack -check that audit files of unknown provenance).
func (p *Packed) Verify() error { return p.doc.Validate() }

// DecodePacked decodes a ROXD v2 container from an in-memory byte slice
// (typically a mapped file). Columns and dictionary strings are zero-copy
// views into data wherever alignment and endianness allow, so the caller
// must keep data valid for the lifetime of the returned document.
//
// Decoding performs structural header checks plus O(dictionary) offset
// validation, but not the O(nodes) Document.Validate scan — skipping it is
// what makes opening a packed shard independent of corpus size. Use Verify
// for a full audit.
func DecodePacked(data []byte) (*Packed, error) {
	cur := data
	take := func(n int, what string) ([]byte, error) {
		if len(cur) < n {
			return nil, formatErr(packedVersion, "", "truncated "+what, io.ErrUnexpectedEOF)
		}
		b := cur[:n]
		cur = cur[n:]
		return b, nil
	}
	magic, err := take(4, "magic")
	if err != nil {
		return nil, err
	}
	if string(magic) != packedMagic {
		return nil, formatErr(0, "", fmt.Sprintf("not a shredded document (magic %q)", magic), nil)
	}
	ver, err := take(1, "version")
	if err != nil {
		return nil, err
	}
	if ver[0] == 1 {
		return nil, formatErr(1, "", "the version 1 stream format was removed; re-pack the document from its XML (roxpack, or datagen -pack)", nil)
	}
	if ver[0] != packedVersion {
		return nil, formatErr(int(ver[0]), "", fmt.Sprintf("unsupported version %d (want %d)", ver[0], packedVersion), nil)
	}
	if _, err := take(3, "header padding"); err != nil {
		return nil, err
	}
	u32 := func(what string) (uint32, error) {
		b, err := take(4, what)
		if err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b), nil
	}
	nameLen, err := u32("document name length")
	if err != nil {
		return nil, err
	}
	if nameLen > maxString {
		return nil, formatErr(packedVersion, "", fmt.Sprintf("implausible document name length %d", nameLen), nil)
	}
	nameB, err := take(int(nameLen), "document name")
	if err != nil {
		return nil, err
	}
	nodeCount, err := u32("node count")
	if err != nil {
		return nil, err
	}
	if nodeCount == 0 || nodeCount > maxNodes {
		return nil, formatErr(packedVersion, "", fmt.Sprintf("implausible node count %d", nodeCount), nil)
	}
	secCount, err := u32("section count")
	if err != nil {
		return nil, err
	}
	const maxSections = 1 << 16
	if secCount > maxSections {
		return nil, formatErr(packedVersion, "", fmt.Sprintf("implausible section count %d", secCount), nil)
	}
	p := &Packed{sections: make(map[string][]byte, secCount)}
	for i := uint32(0); i < secCount; i++ {
		snLen, err := u32("directory entry name length")
		if err != nil {
			return nil, err
		}
		if snLen > 256 {
			return nil, formatErr(packedVersion, "", fmt.Sprintf("implausible section name length %d", snLen), nil)
		}
		snB, err := take(int(snLen), "directory entry name")
		if err != nil {
			return nil, err
		}
		offLen, err := take(16, "directory entry bounds")
		if err != nil {
			return nil, err
		}
		off := binary.LittleEndian.Uint64(offLen)
		length := binary.LittleEndian.Uint64(offLen[8:])
		name := string(snB)
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, formatErr(packedVersion, name,
				fmt.Sprintf("section bounds [%d, %d+%d) exceed file size %d", off, off, length, len(data)),
				io.ErrUnexpectedEOF)
		}
		p.sections[name] = data[off : off+length : off+length]
		p.secNames = append(p.secNames, name)
	}

	doc, err := docFromSections(string(nameB), int(nodeCount), p.sections)
	if err != nil {
		return nil, err
	}
	p.doc = doc
	return p, nil
}

// docFromSections assembles the Document from the core column and dictionary
// sections, zero-copy where possible.
func docFromSections(name string, n int, secs map[string][]byte) (*Document, error) {
	get := func(sec string, wantLen int) ([]byte, error) {
		b, ok := secs[sec]
		if !ok {
			return nil, formatErr(packedVersion, sec, "section missing", nil)
		}
		if wantLen >= 0 && len(b) != wantLen {
			return nil, formatErr(packedVersion, sec,
				fmt.Sprintf("section length %d, want %d", len(b), wantLen), io.ErrUnexpectedEOF)
		}
		return b, nil
	}
	kindsB, err := get(secKinds, n)
	if err != nil {
		return nil, err
	}
	d := &Document{
		name:  name,
		kinds: unsafe.Slice((*Kind)(unsafe.Pointer(unsafe.SliceData(kindsB))), n),
	}
	for _, col := range []struct {
		sec string
		dst *[]int32
	}{
		{secSizes, &d.sizes}, {secLevels, &d.levels}, {secNames, &d.names},
		{secValues, &d.values}, {secParents, &d.parents},
	} {
		b, err := get(col.sec, 4*n)
		if err != nil {
			return nil, err
		}
		if *col.dst, err = AsInt32s(b); err != nil {
			return nil, formatErr(packedVersion, col.sec, "bad column", err)
		}
	}
	if d.qnames, err = dictFromSections(secs, secQNOff, secQNBlob); err != nil {
		return nil, err
	}
	if d.vals, err = dictFromSections(secs, secValOff, secValBlob); err != nil {
		return nil, err
	}
	// Cheap root sanity checks stand in for the full Validate scan.
	if d.kinds[0] != KindDoc || d.sizes[0] != int32(n-1) || d.levels[0] != 0 || d.parents[0] != NoNode {
		return nil, formatErr(packedVersion, secKinds, "root node invariants violated", nil)
	}
	return d, nil
}

// dictFromSections rebuilds a dictionary over a mapped offset table + blob.
// Strings are unsafe views into the blob (zero copy); only the lookup map is
// materialized, costing O(dictionary), not O(nodes).
func dictFromSections(secs map[string][]byte, offName, blobName string) (*Dict, error) {
	offB, ok := secs[offName]
	if !ok {
		return nil, formatErr(packedVersion, offName, "section missing", nil)
	}
	blob, ok := secs[blobName]
	if !ok {
		return nil, formatErr(packedVersion, blobName, "section missing", nil)
	}
	off, err := AsUint32s(offB)
	if err != nil {
		return nil, formatErr(packedVersion, offName, "bad offset table", err)
	}
	if len(off) == 0 {
		return nil, formatErr(packedVersion, offName, "empty offset table", io.ErrUnexpectedEOF)
	}
	byID := make([]string, len(off)-1)
	byS := make(map[string]int32, len(off)-1)
	for i := 0; i+1 < len(off); i++ {
		lo, hi := off[i], off[i+1]
		if lo > hi || hi > uint32(len(blob)) {
			return nil, formatErr(packedVersion, offName,
				fmt.Sprintf("offset table entry %d: [%d, %d) outside blob of %d bytes", i, lo, hi, len(blob)), nil)
		}
		var s string
		if hi > lo {
			s = unsafe.String(&blob[lo], int(hi-lo))
		}
		byID[i] = s
		byS[s] = int32(i)
	}
	return &Dict{byID: byID, byS: byS}, nil
}

// OpenPackedFile opens a packed container, memory-mapping it when the
// platform supports it (zero-copy, shared pages across processes) and
// falling back to reading it into the heap otherwise. A mapped container is
// unmapped automatically once its Document becomes unreachable, which is
// what makes a shard swap O(1) with no stop-the-world: the old mapping
// serves in-flight readers until the garbage collector proves nobody holds
// it. There is deliberately no explicit Close — an early unmap under a live
// reader would fault the process.
func OpenPackedFile(path string) (*Packed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if mmapSupported && st.Size() > 0 {
		if data, unmap, merr := mmapFile(f, st.Size()); merr == nil {
			p, derr := DecodePacked(data)
			if derr != nil {
				unmap()
				return nil, derr
			}
			p.doc.mapped = true
			runtime.AddCleanup(p.doc, func(u func()) { u() }, unmap)
			return p, nil
		}
		// Mapping failed (exotic filesystem, resource limits): fall through
		// to the heap read below rather than failing the load.
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	return DecodePacked(data)
}

// WritePackedFile writes d (plus extra sections) as a packed container file.
func WritePackedFile(path string, d *Document, extra []Section) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePacked(f, d, extra); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
