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

// Slack reports whether the link is slack (see isSlack), for the external
// classification test. The flags are current once a flow was admitted
// since the topology was last changed.
func (l *Link) Slack() bool { return l.slack }

// bindEveryLink makes every link binding from now on, the fabric's
// behaviour without slack links, for the differential tests: it marks
// every vertex as a flow endpoint, which the slack rule excludes. Call it
// after the topology is built.
func (f *Fabric) bindEveryLink() {
	for v := range f.endpoint {
		f.markEndpoint(int32(v))
	}
	f.relist()
}
