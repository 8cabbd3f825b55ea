package core

// Bitmap is a set of ids, one bit each: bit id%64 of word id/64, so a set
// over n ids is BitmapWords(n) words. A dynamic index keeps its live handles
// in one and a tree's leaf scan reads it (balltree.Tree.SearchLive). Ids are
// non-negative and below 64·len(b).
type Bitmap []uint64

// BitmapWords returns how many words cover n ids.
func BitmapWords(n int) int { return (n + 63) / 64 }

// Has reports whether id is in the set.
func (b Bitmap) Has(id int32) bool { return b[id>>6]&(1<<(id&63)) != 0 }

// Set adds id to the set.
func (b Bitmap) Set(id int32) { b[id>>6] |= 1 << (id & 63) }

// Clear removes id from the set.
func (b Bitmap) Clear(id int32) { b[id>>6] &^= 1 << (id & 63) }
