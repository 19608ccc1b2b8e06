package trace

// The kernel benchmarks render property sites, which this package cannot
// import, so they run in package trace_test; these hand them the two
// kernels decodeBlock chains.

// Inflater is the decoder one ReadAll worker reuses across blocks.
type Inflater = inflater

// NewInflater returns an inflater with no scratch buffer yet.
func NewInflater() *Inflater { return new(inflater) }

// NumBlocks returns how many blocks the index declares.
func (br *BlockReader) NumBlocks() int { return len(br.blocks) }

// Inflate inflates block i's payload with in, under the block's cap. The
// bytes live in in's buffer until its next inflate.
func (br *BlockReader) Inflate(in *Inflater, i int) ([]byte, error) {
	return in.inflate(br.blocks[i].body, maxColumnBytes(br.blocks[i].count))
}

// DecodeColumns decodes raw, block i's inflated payload, into dst.
func (br *BlockReader) DecodeColumns(i int, raw []byte, dst []Rec) ([]Rec, error) {
	return decodeColumns(raw, br.blocks[i].count, dst)
}
