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
// Instead of allocating a fresh chain of closures per request, each record
// carries its cursor state (key, sizes, interval anchors) and a set of
// continuations pre-bound once when the record is created — the same
// pattern as netsim's pooled message and Flow records — so the steady-state
// request path is 0 allocs/op (CI-pinned). Records come from a Deployment
// freelist grown in chunks (take) and are recycled when the reply (or the 500)
// fully arrives. A request stranded by a crash or cut link mid-chain never
// reaches a recycling continuation; its record is simply lost to the pool,
// like the request itself.
type webReq struct {
	d         *Deployment
	w         *WebServer
	cache     *CacheServer
	db        *DBServer
	client    netsim.Vertex
	imageFrac float64
	seq       uint64
	done      func(seq uint64, ok bool)

	k          rowKey
	rowSize    units.Bytes // row size on the chosen table (miss reply size)
	replySize  units.Bytes
	arrived    sim.Time
	cacheStart sim.Time
	dbStart    sim.Time

	// Pre-bound continuations, created once per record (amortized to zero
	// by the pool), one per edge of the diagram above.
	arrivedFn, startFn, prologueFn, atCacheFn, cacheGetFn func()
	hitReturnFn, hitDoneFn                                func()
	missReturnFn, atDBFn, dbCPUFn, dbReadFn, dbReturnFn   func()
	dbDoneFn, assembledFn, okFn, errFn, shedFn            func()
}

// poolChunk is how many records a freelist grows by at once.
const poolChunk = 64

// take pops a record from a freelist, growing it by a chunk of records
// whose continuations are bound once (bind) when empty.
func take[T any, P interface {
	*T
	bind(*Deployment)
}](free *[]P, d *Deployment) P {
	if len(*free) == 0 {
		chunk := make([]T, poolChunk)
		for i := range chunk {
			r := P(&chunk[i])
			r.bind(d)
			*free = append(*free, r)
		}
	}
	r := (*free)[len(*free)-1]
	*free = (*free)[:len(*free)-1]
	return r
}

func (r *webReq) bind(d *Deployment) {
	r.d = d
	r.arrivedFn = r.arrivedAtWeb
	r.startFn = r.start
	r.prologueFn = r.prologueDone
	r.atCacheFn = r.arrivedAtCache
	r.cacheGetFn = r.cacheLooked
	r.hitReturnFn = r.hitReturned
	r.hitDoneFn = r.hitUnmarshaled
	r.missReturnFn = r.missReturned
	r.atDBFn = r.arrivedAtDB
	r.dbCPUFn = r.dbComputed
	r.dbReadFn = r.dbRead
	r.dbReturnFn = r.dbReturned
	r.dbDoneFn = r.dbUnmarshaled
	r.assembledFn = r.assembled
	r.okFn = r.deliverOK
	r.errFn = r.deliverErr
	r.shedFn = r.shedComputed
}

// recycleReq returns the record to the pool, releasing callback and server
// references for GC.
func (d *Deployment) recycleReq(r *webReq) {
	r.done = nil
	r.w = nil
	r.cache = nil
	r.db = nil
	d.freeReqs = append(d.freeReqs, r)
}

// request drives one HTTP request through the stack on a pooled record.
// done(seq, ok) runs at the client when the reply (or the 500) fully
// arrives; seq is handed back as given so the caller can tell a reply to an
// abandoned attempt from the live one. The web-server-side interval and the
// cache/DB sub-intervals feed the Table 7 decomposition.
func (d *Deployment) request(client netsim.Vertex, w *WebServer, imageFrac float64, seq uint64, done func(uint64, bool)) {
	r := take(&d.freeReqs, d)
	r.w = w
	r.client = client
	r.imageFrac = imageFrac
	r.seq = seq
	r.done = done
	d.Fab.Send(client, w.vx, requestBytes, r.arrivedFn)
}

// arrivedAtWeb runs when the request bytes reach the web server: admission
// control first (a fast-fail 503 at a fraction of full service cost), then
// admission, or a short 500 error page (still delivered) when overloaded.
func (r *webReq) arrivedAtWeb() {
	r.arrived = r.d.Eng.Now()
	if r.d.shed.Enabled() && r.w.shouldShed() {
		r.d.noteShed()
		r.w.Node.ComputeSeconds(r.d.fastFailCPU, r.shedFn)
		return
	}
	if !r.w.admitRequest(r.startFn) {
		r.d.Fab.Send(r.w.vx, r.client, 512, r.errFn)
	}
}

// shedComputed pushes the 503 rejection page after its fast-fail CPU burn.
func (r *webReq) shedComputed() {
	r.d.Fab.Send(r.w.vx, r.client, 512, r.errFn)
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
	d.Fab.Send(r.w.vx, r.cache.vx, rpcHeaderBytes, r.atCacheFn)
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
		r.d.Fab.Send(r.cache.vx, r.w.vx, size, r.hitReturnFn)
		return
	}
	r.d.Fab.Send(r.cache.vx, r.w.vx, rpcHeaderBytes, r.missReturnFn)
}

// hitReturned runs when the cached value reaches the web server. The
// client-side unmarshal is inside the timed $memcache->get() interval; at
// high web CPU it queues and the measured cache delay balloons (Table 7's
// right column).
func (r *webReq) hitReturned() {
	r.w.Node.ComputeSeconds(r.d.Plat.Web.CacheClientCPU, r.hitDoneFn)
}

func (r *webReq) hitUnmarshaled() {
	r.d.cacheDelay.Add(float64(r.d.Eng.Now() - r.cacheStart))
	r.finish(r.replySize)
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
	d.cacheDelay.Add(float64(d.Eng.Now() - r.cacheStart))
	if d.brownout {
		d.noteDegraded()
		r.finish(degradedReplyBytes)
		return
	}
	r.db = d.DBs[d.rnd.db.Intn(len(d.DBs))]
	r.dbStart = d.Eng.Now()
	d.Fab.Send(r.w.vx, r.db.vx, requestBytes, r.atDBFn)
}

// arrivedAtDB..dbRead execute one MySQL lookup on the record: query CPU,
// then a buffered read of the row (the DBServer keeps the counter).
func (r *webReq) arrivedAtDB() {
	r.db.Node.ComputeSeconds(r.db.queryCPU, r.dbCPUFn)
}

func (r *webReq) dbComputed() {
	r.db.Node.Disk().Read(r.rowSize, true, r.dbReadFn)
}

func (r *webReq) dbRead() {
	r.d.Fab.Send(r.db.vx, r.w.vx, r.rowSize, r.dbReturnFn)
}

func (r *webReq) dbReturned() {
	r.w.Node.ComputeSeconds(r.d.Plat.Web.CacheClientCPU, r.dbDoneFn)
}

func (r *webReq) dbUnmarshaled() {
	r.d.dbDelay.Add(float64(r.d.Eng.Now() - r.dbStart))
	r.finish(r.rowSize)
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
	d.webTotal.Add(float64(d.Eng.Now() - r.arrived))
	r.w.inflight--
	d.Fab.Send(r.w.vx, r.client, r.replySize+256, r.okFn)
}

// deliverOK/deliverErr run at the client on full arrival of the reply/500:
// recycle first so the callback can immediately reuse the record.
func (r *webReq) deliverOK() {
	done, seq := r.done, r.seq
	r.d.recycleReq(r)
	done(seq, true)
}

func (r *webReq) deliverErr() {
	done, seq := r.done, r.seq
	r.d.recycleReq(r)
	done(seq, false)
}
