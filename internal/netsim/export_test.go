package netsim

// Links returns every directed link in creation order, for the external
// route tests: a vertex's outgoing links in this order are its adjacency
// list.
func (f *Fabric) Links() []*Link { return f.links }

// RouteTrees reports how many per-source route trees the fabric holds.
func (f *Fabric) RouteTrees() int { return f.nTrees }

// TreeBudget is treeBudget, for the external route tests.
const TreeBudget = treeBudget

// Path is the route table's path by vertex index, for the external route
// tests.
func (f *Fabric) Path(src, dst Vertex) []*Link { return f.path(src, dst) }
