package web

import (
	"edisim/internal/netsim"
	"edisim/internal/sim"
	"edisim/internal/units"
)

// webReq is a pooled in-flight request record driven as a state machine:
//
//	client --req--> web [CPU: parse] --get--> cache [CPU] --value--> web
//	                 (on miss: web --q--> DB [CPU+disk] --row--> web)
//	web [CPU: assemble] --reply--> client
//
// Each record carries its cursor state (key, sizes, interval anchors) and
// one continuation per edge of the diagram, pre-bound once per record (the
// pattern of netsim's pooled message and Flow records), so the
// steady-state request path is 0 allocs/op (CI-pinned). A record recycles
// when its reply (or 500) arrives; one stranded by a crash or cut link
// mid-chain is lost to the pool, like the request itself.
type webReq struct {
	d         *Deployment
	w         *WebServer
	cache     *CacheServer
	db        *DBServer
	client    netsim.Vertex
	imageFrac float64
	stamp     uint64
	done      func(stamp uint64, ok bool)

	k          rowKey
	rowSize    units.Bytes // row size on the chosen table (miss reply size)
	replySize  units.Bytes
	arrived    sim.Time
	cacheStart sim.Time
	dbStart    sim.Time

	arrivedFn, startFn, prologueFn, atCacheFn, cacheGetFn func()
	valueReturnFn, unmarshaledFn                          func()
	missReturnFn, atDBFn, dbCPUFn, dbReadFn               func()
	assembledFn, okFn, errFn, shedFn                      func()
}

func bindReq(r *webReq) {
	r.arrivedFn, r.startFn, r.prologueFn, r.atCacheFn, r.cacheGetFn = r.arrivedAtWeb, r.start, r.prologueDone, r.arrivedAtCache, r.cacheLooked
	r.valueReturnFn, r.unmarshaledFn = r.valueReturned, r.unmarshaled
	r.missReturnFn, r.atDBFn, r.dbCPUFn, r.dbReadFn = r.missReturned, r.arrivedAtDB, r.dbComputed, r.dbRead
	r.assembledFn, r.okFn, r.errFn, r.shedFn = r.assembled, r.deliverOK, r.deliverErr, r.shedComputed
}

// request drives one HTTP request through the stack on a pooled record.
// done(stamp, ok) runs at the client when the reply (or the 500) fully
// arrives; the stamp is handed back unchanged so the caller can recognise a
// reply to an attempt it has since abandoned. The web-server-side interval
// and the cache/DB sub-intervals feed the Table 7 decomposition.
func (d *Deployment) request(client netsim.Vertex, w *WebServer, imageFrac float64, stamp uint64, done func(uint64, bool)) {
	r := d.reqs.get(bindReq)
	r.d = d
	r.w = w
	r.client = client
	r.imageFrac = imageFrac
	r.stamp = stamp
	r.done = done
	d.Fab.Send(client, w.vertex, requestBytes, r.arrivedFn)
}

// arrivedAtWeb runs when the request bytes reach the web server: admission
// control first (a fast-fail 503 at a fraction of full service cost), then
// admission, or a short 500 error page (still delivered) when overloaded.
func (r *webReq) arrivedAtWeb() {
	r.arrived = r.d.Eng.Now()
	if r.d.run.shed.Enabled() && r.w.shouldShed() {
		r.d.noteShed()
		r.w.Node.ComputeSeconds(r.d.run.fastFailCPU, r.shedFn)
		return
	}
	if !r.w.admitRequest(r.startFn) {
		r.d.Fab.Send(r.w.vertex, r.client, 512, r.errFn)
	}
}

// shedComputed pushes the 503 rejection page after its fast-fail CPU burn.
func (r *webReq) shedComputed() {
	r.d.Fab.Send(r.w.vertex, r.client, 512, r.errFn)
}

// start runs when a worker thread picks the request up: choose the table
// and row the paper's PHP page would, then burn the parse prologue CPU.
func (r *webReq) start() {
	d := r.d
	var table int
	if d.rnd.table.Bool(r.imageFrac) {
		table = numPlainTables + d.rnd.table.Intn(numImageTables)
	} else {
		table = d.rnd.table.Intn(numPlainTables)
	}
	row := d.rnd.row.Intn(rowsPerTable)
	r.k = key(table, row)
	r.rowSize = units.Bytes(plainReplyBytes)
	if table >= numPlainTables {
		r.rowSize = units.Bytes(imageReplyBytes)
	}
	r.w.Node.ComputeSeconds(d.Plat.Web.BaseCPU, r.prologueFn)
}

// prologueDone launches the memcached GET at the key's cache server.
func (r *webReq) prologueDone() {
	d := r.d
	r.cache = d.cacheFor(r.k)
	r.cacheStart = d.Eng.Now()
	d.Fab.Send(r.w.vertex, r.cache.vertex, rpcHeaderBytes, r.atCacheFn)
}

// arrivedAtCache burns the server-side GET cost on the cache node.
func (r *webReq) arrivedAtCache() {
	r.cache.Node.ComputeSeconds(r.d.CachePlat.Web.CacheGetCPU, r.cacheGetFn)
}

// cacheLooked performs the in-memory hit check and sends back either the
// value or the tiny negative response.
func (r *webReq) cacheLooked() {
	size, hit := r.cache.lookup(r.k)
	if hit {
		r.replySize = size
		r.d.Fab.Send(r.cache.vertex, r.w.vertex, size, r.valueReturnFn)
		return
	}
	r.d.Fab.Send(r.cache.vertex, r.w.vertex, rpcHeaderBytes, r.missReturnFn)
}

// valueReturned runs when the cached value, or on a miss the DB row,
// reaches the web server. The client-side unmarshal is inside the timed
// $memcache->get() (or query) interval; at high web CPU it queues and the
// measured delay balloons (Table 7's right column).
func (r *webReq) valueReturned() {
	r.w.Node.ComputeSeconds(r.d.Plat.Web.CacheClientCPU, r.unmarshaledFn)
}

// unmarshaled closes the cache (hit) or DB (miss) interval and assembles
// the page from the value.
func (r *webReq) unmarshaled() {
	res := &r.d.run.res
	if r.db == nil {
		res.CacheDelay.Add(float64(r.d.Eng.Now() - r.cacheStart))
		r.finish(r.replySize)
		return
	}
	res.DBDelay.Add(float64(r.d.Eng.Now() - r.dbStart))
	r.finish(r.rowSize)
}

// degradedReplyBytes is the size of a brownout answer: a stale or partial
// page assembled without the database round trip.
const degradedReplyBytes = 512

// missReturned runs when the negative response arrives: close the cache
// interval and fall through to MySQL — unless the SLO controller has
// engaged brownout, in which case the server answers with a cheap stale
// page and skips the DB trip entirely.
func (r *webReq) missReturned() {
	d := r.d
	d.run.res.CacheDelay.Add(float64(d.Eng.Now() - r.cacheStart))
	if d.run.brownout {
		d.noteDegraded()
		r.finish(degradedReplyBytes)
		return
	}
	r.db = d.DBs[d.rnd.db.Intn(len(d.DBs))]
	r.dbStart = d.Eng.Now()
	d.Fab.Send(r.w.vertex, r.db.vertex, requestBytes, r.atDBFn)
}

// arrivedAtDB..dbRead execute one MySQL lookup on the record: query CPU,
// then a buffered read of the row.
func (r *webReq) arrivedAtDB() {
	r.db.Node.ComputeSeconds(r.db.queryCPU, r.dbCPUFn)
}

func (r *webReq) dbComputed() {
	r.db.Node.Disk().Read(r.rowSize, true, r.dbReadFn)
}

func (r *webReq) dbRead() {
	r.d.Fab.Send(r.db.vertex, r.w.vertex, r.rowSize, r.valueReturnFn)
}

// finish assembles the page (reply CPU scales with size) and pushes the
// reply to the client.
func (r *webReq) finish(size units.Bytes) {
	r.replySize = size
	costs := r.d.Plat.Web
	kb := float64(size) / 1024
	r.w.Node.ComputeSeconds(costs.ReplyCPU+costs.PerKBCPU*kb, r.assembledFn)
}

func (r *webReq) assembled() {
	d := r.d
	d.run.res.WebTotal.Add(float64(d.Eng.Now() - r.arrived))
	r.w.finishRequest()
	d.Fab.Send(r.w.vertex, r.client, r.replySize+256, r.okFn)
}

// deliverOK/deliverErr run at the client on full arrival of the reply/500:
// recycle first so the callback can immediately reuse the record.
func (r *webReq) deliverOK()  { r.deliver(true) }
func (r *webReq) deliverErr() { r.deliver(false) }

func (r *webReq) deliver(ok bool) {
	done, stamp := r.done, r.stamp
	r.done, r.w, r.cache, r.db = nil, nil, nil, nil
	r.d.reqs.put(r)
	done(stamp, ok)
}
