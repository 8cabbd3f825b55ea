// Package p2h is a Go library for Point-to-Hyperplane Nearest Neighbor
// Search (P2HNNS): given a database of points and a hyperplane query, find
// the k points closest to the hyperplane.
//
// It reproduces "Lightweight-Yet-Efficient: Revitalizing Ball-Tree for
// Point-to-Hyperplane Nearest Neighbor Search" (Huang & Tung, ICDE 2023):
// the Ball-Tree branch-and-bound index with the paper's node-level ball
// bound, and BC-Tree, which adds point-level ball and cone bounds plus
// collaborative inner product computing. The hashing baselines NH and FH
// (Huang et al., SIGMOD 2021), a KD-Tree alternative, and an exhaustive scan
// are included for comparison and ground truth.
//
// # Model
//
// Data points are vectors p in R^d. A hyperplane query is a vector
// q = (w; b) in R^(d+1) whose first d coordinates are the hyperplane normal
// and whose last coordinate is the offset: the hyperplane is
// {y : <w, y> + b = 0}. Indexes internally lift every point to x = (p; 1) so
// the distance to the hyperplane reduces to |<x, q>| when ||w|| = 1 (the
// library rescales queries that are not normalized, which leaves the nearest
// neighbors unchanged).
//
// # Quick start
//
//	data := p2h.GenerateDataset("Sift", 10000, 1) // or p2h.FromRows(yourVectors)
//	index, err := p2h.New(data, p2h.Spec{Kind: p2h.KindBCTree})
//	q := p2h.Hyperplane(normal, offset)
//	results, _ := index.Search(q, p2h.SearchOptions{K: 10})
//
// New is the one constructor: a Spec names an index kind (Kinds lists them)
// plus its tuning fields, and malformed input returns an error
// (ErrUnknownKind, ErrDimMismatch) instead of panicking. Where a kind has
// methods beyond Index, assert on what New returns: index.(*p2h.Dynamic) for
// Insert and Delete, index.(*p2h.BallTree) for the classic point queries,
// index.(*p2h.Sharded) for Shards. Exact search is the default; set
// SearchOptions.Budget to cap the number of candidate verifications and
// trade recall for speed (the paper's candidate fraction).
//
// # Persistence
//
// Save and Load (SaveFile, Open) move any persistable index — the balltree,
// bctree, sharded and dynamic kinds — through a self-describing container
// that records its own kind and Spec, so loading needs no type
// information:
//
//	_ = p2h.SaveFile("index.p2h", index)
//	loaded, err := p2h.Open("index.p2h") // any persistable kind
//
// Malformed input returns errors wrapping ErrFormat.
//
// # Serving
//
// Every index is safe for concurrent readers, and SearchBatch fans a query
// matrix over a goroutine pool. For serving live traffic, Server wraps any
// Index (including Sharded and Dynamic) behind a bounded set of worker
// slots — a search runs on its caller's goroutine, a batch is split one
// chunk per slot — with a normalized-query result cache and
// snapshot-consistent reads across concurrent Insert/Delete:
//
//	srv := p2h.NewServer(index, p2h.ServerOptions{})
//	defer srv.Close()
//	results, _ := srv.Search(q, p2h.SearchOptions{K: 10})
//
// Server.Snapshot persists the wrapped index atomically while serving, and
// Server.Drain bounds shutdown with a context. The cmd/p2hd daemon exposes
// named servers over an HTTP API (search, mutation, snapshots, hot reload,
// Prometheus metrics); InspectFile describes a saved container — kind,
// recorded Spec, dimensionality, point count — without loading its payload.
//
// The cmd/p2hbench tool regenerates every table and figure of the paper's
// evaluation section, building every method through New; `p2htool eval`
// runs the same budget sweep over one index on your own data; the
// benchmark directory holds the one harness that
// measures every layer, from the kernels to the cluster router (go run
// ./benchmark); see README.md, DESIGN.md, EXPERIMENTS.md and
// benchmark/README.md.
package p2h
