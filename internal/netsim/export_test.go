package netsim

// OutLinks exposes v's adjacency list, in Connect order, to the external
// tests.
func (f *Fabric) OutLinks(v Vertex) []*Link { return f.adj[v] }

// NumVertices reports how many vertices the fabric has registered.
func (f *Fabric) NumVertices() int { return len(f.names) }
