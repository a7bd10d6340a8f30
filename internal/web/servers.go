package web

import (
	"edisim/internal/hw"
	"edisim/internal/netsim"
	"edisim/internal/sim"
	"edisim/internal/units"
)

// WebServer is one Lighttpd+PHP node in the middle tier.
type WebServer struct {
	Node *hw.Node

	dep    *Deployment
	vertex netsim.Vertex // Node's fabric vertex

	// Connection admission (ports/threads for accept).
	lastAccept  sim.Time
	pendingSyn  int
	activeConns int

	// Request admission (thread churn).
	lastReq  sim.Time
	inflight int

	// acceptQ and startQ hold the queued accepts and worker starts. Each
	// admission is no earlier than the last, so both are FIFO lanes.
	acceptQ, startQ *sim.Lane

	// errored counts requests answered with a 500.
	errored int64

	// inc is the node incarnation the admission state belongs to; a crash
	// bumps the node's counter and the first admission after the reboot
	// resets the wiped kernel-side state (see syncIncarnation).
	inc uint64
}

func newWebServer(dep *Deployment, node *hw.Node) *WebServer {
	return &WebServer{Node: node, dep: dep, vertex: dep.Fab.Vertex(node.ID),
		acceptQ: dep.Eng.NewLane(), startQ: dep.Eng.NewLane()}
}

// costs resolves the middle-tier platform's web calibration.
func (w *WebServer) costs() hw.WebCosts { return w.dep.Plat.Web }

// connInterval is the minimum spacing between accepted connections,
// inflated by the reply-size load factor (threads/ports held longer for
// bigger transfers) and when the SYN backlog is under pressure (port churn
// thrash).
func (w *WebServer) connInterval() float64 {
	base := w.dep.run.loadFactor / w.costs().ConnRate
	if w.pendingSyn > w.dep.Params.SynBacklog/2 {
		frac := float64(w.pendingSyn) / float64(w.dep.Params.SynBacklog)
		base /= 1 - w.dep.Params.ThrashFactor*frac
	}
	return base
}

// syncIncarnation lazily clears admission state wiped by a crash: the SYN
// backlog, connection and inflight counts died with the kernel, so the first
// admission attempt after a reboot starts from a clean table. Events queued
// before the crash may still decrement the fresh counters (briefly negative),
// which only loosens admission — matching a freshly booted, empty server.
// On a never-crashed node this is a single compare.
func (w *WebServer) syncIncarnation() {
	if inc := w.Node.Incarnation(); inc != w.inc {
		w.inc = inc
		w.pendingSyn, w.activeConns, w.inflight = 0, 0, 0
	}
}

// admitConn processes an arriving SYN. It returns false when the SYN is
// dropped (backlog full, or the host is down); otherwise it queues the SYN
// and reports when the server gets to it. The caller schedules the accept
// for that instant, and the accept begins with acceptConn.
func (w *WebServer) admitConn() (sim.Time, bool) {
	w.syncIncarnation()
	if !w.Node.Up() || w.pendingSyn >= w.dep.Params.SynBacklog {
		return 0, false
	}
	eng := w.dep.Eng
	at := eng.Now() + sim.Time(w.connInterval())
	if prev := w.lastAccept + sim.Time(w.connInterval()); prev > at {
		at = prev
	}
	w.lastAccept = at
	w.pendingSyn++
	return at, true
}

// acceptConn moves a queued SYN into an open connection.
func (w *WebServer) acceptConn() {
	w.pendingSyn--
	w.activeConns++
}

func (w *WebServer) closeConn() { w.activeConns-- }

// admitRequest applies the request-rate cap and the inflight bound.
// It returns false (500) when the server is overloaded or down.
func (w *WebServer) admitRequest(start func()) bool {
	w.syncIncarnation()
	if !w.Node.Up() {
		w.errored++
		return false
	}
	if w.inflight >= w.costs().MaxInflight {
		w.errored++
		return false
	}
	eng := w.dep.Eng
	interval := w.dep.run.loadFactor / w.costs().ReqRate
	at := eng.Now()
	if prev := w.lastReq + sim.Time(interval); prev > at {
		at = prev
	}
	// A request that would wait more than 2 s for a worker thread times
	// out server-side (the paper's 5xx under overload).
	if float64(at-eng.Now()) > 2.0 {
		w.errored++
		return false
	}
	w.lastReq = at
	w.inflight++
	w.startQ.At(at, start)
	return true
}

func (w *WebServer) finishRequest() { w.inflight-- }

// CacheServer is one memcached node holding a real key→size store. The
// store is the server's share of the deployment's dense table (store), one
// slot per row of the dataset: cacheFor gives each key exactly one server,
// so the servers never share a slot, and a lookup is an index instead of a
// hash.
type CacheServer struct {
	Node *hw.Node

	dep    *Deployment
	vertex netsim.Vertex // Node's fabric vertex
	items  *store
	used   units.Bytes

	gets, hits int64
}

func newCacheServer(dep *Deployment, node *hw.Node, items *store) *CacheServer {
	return &CacheServer{Node: node, dep: dep, vertex: dep.Fab.Vertex(node.ID), items: items}
}

// store is a deployment's cache contents: the stored value size of every
// row of the dataset, indexed by rowKey; 0 is absent, since a stored value
// has a positive size.
type store [(numPlainTables + numImageTables) * rowsPerTable]units.Bytes

// Set stores a value size under key (warm-up path).
func (c *CacheServer) Set(key rowKey, size units.Bytes) {
	c.used += size - c.items[key]
	c.items[key] = size
}

// lookup performs the in-memory hit check (the actual data structure, not a
// coin flip) and returns the stored size.
func (c *CacheServer) lookup(key rowKey) (units.Bytes, bool) {
	c.gets++
	size := c.items[key]
	if size == 0 {
		return 0, false
	}
	c.hits++
	return size, true
}

// HitRatio reports the measured hit ratio so far.
func (c *CacheServer) HitRatio() float64 {
	if c.gets == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.gets)
}

// DBServer is one MySQL node (always on the testbed's infra platform, a
// Dell R620 in the paper's setup).
type DBServer struct {
	Node *hw.Node

	dep      *Deployment
	vertex   netsim.Vertex // Node's fabric vertex
	queryCPU float64       // per-query single-core seconds on this platform
}

func newDBServer(dep *Deployment, node *hw.Node, queryCPU float64) *DBServer {
	return &DBServer{Node: node, dep: dep, vertex: dep.Fab.Vertex(node.ID), queryCPU: queryCPU}
}

// rowKey identifies a row in the synthetic wikipedia+images dataset: a
// dense integer (table × rowsPerTable + row). The pre-pooling code
// formatted a "tNN:rNNNNNN" string per lookup, which allocated on every
// request; the integer hashes and compares without allocating. (The query
// path is driven by the pooled webReq record in request.go.)
type rowKey int32

// key builds the rowKey for a table/row pair.
func key(table, row int) rowKey { return rowKey(table*rowsPerTable + row) }

// cacheFor maps a key to its cache server (client-side consistent hashing,
// as PHP memcached clients do): FNV-1a over the key's 4 little-endian bytes.
func (dep *Deployment) cacheFor(k rowKey) *CacheServer {
	var h uint32 = 2166136261
	v := uint32(k)
	for i := 0; i < 4; i++ {
		h = (h ^ (v & 0xff)) * 16777619
		v >>= 8
	}
	return dep.Cache[int(h)%len(dep.Cache)]
}
