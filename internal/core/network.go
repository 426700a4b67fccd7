package core

import (
	"fmt"
	"time"

	"github.com/osu-netlab/osumac/internal/frame"
	"github.com/osu-netlab/osumac/internal/phy"
	"github.com/osu-netlab/osumac/internal/sim"
	"github.com/osu-netlab/osumac/internal/traffic"
)

// InternalError reports a broken protocol invariant detected mid-run
// (e.g. the base station producing unencodable control fields). It
// aborts the simulation instead of panicking so embedding programs can
// surface the failure.
type InternalError struct {
	Op  string // the operation that failed, e.g. "control field encode"
	Err error
}

// Error implements the error interface.
func (e *InternalError) Error() string {
	return fmt.Sprintf("core: internal error: %s: %v", e.Op, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *InternalError) Unwrap() error { return e.Err }

// Network wires one base station and its mobile subscribers onto the
// discrete-event kernel and the simulated channels. It owns all
// measurement plumbing (message delay, reservation and registration
// latency) that a real deployment would not carry in-band.
type Network struct {
	cfg     Config
	sim     *sim.Simulator
	codec   *frame.Codec
	rootRNG *sim.RNG
	base    *BaseStation
	metrics *Metrics
	runErr  error

	subs       []*subEntry
	byEIN      map[frame.EIN]*subEntry
	cycle      int    // cycles started so far
	traceSeq   uint64 // monotone trace-event sequence (see trace.go)
	inlineRing *Ring  // non-nil when cfg.Tracer claimed the inline store (see ring.go)
	inlineFwd  uint64 // EventKind bitmask still forwarded through cfg.Tracer
	prevSnap   seriesSnap
	seriesNext int // first cycle index without a recorded series point

	// OnUplinkComplete, when non-nil, fires for every uplink message
	// fully reassembled at the base station — the hook a backbone uses
	// to forward traffic toward other cells.
	OnUplinkComplete func(user frame.UserID, msgID uint16, bytes int)
	msgMeta          map[uint32]msgMeta
	fwdMeta          map[uint32]msgMeta
	nextFwdID        map[frame.UserID]uint16

	// Reused codec/channel scratch. The kernel is single-threaded and
	// every consumer finishes with its buffer before handing control
	// back, so one buffer per role removes the per-slot allocations.
	// cf1Buf/cf2Buf live until their delivery events fire later in the
	// same cycle; the rest are consumed within one handler: encBuf and
	// rxBuf hold one codeword, infoBuf and decBuf the marshaled and
	// decoded information bytes of a slot's transmissions, and rxCF the
	// control fields a subscriber decodes (its state machine only reads
	// them).
	cf1Buf  []byte
	cf2Buf  []byte
	encBuf  []byte
	rxBuf   []byte
	infoBuf []byte
	decBuf  []byte
	slotTxs []slotTx
	rxInfos [][]byte
	rxCF    frame.ControlFields

	// Compiled-cycle executor (see compiled.go). compiled is nil when
	// Config.DisableCompiledCycle is set; allIdeal tracks whether every
	// attached channel model is phy.Ideal — the fast path's precondition.
	compiled *compiledSource
	allIdeal bool

	// Scratch owned by the compiled fast path. The kernel is
	// single-threaded and each is fully consumed within one slot
	// handler. scratchPayload stays all-zero: fast-path data packets
	// slice it without writing, mirroring the event path's zeroed
	// make([]byte, size) payloads.
	scratchData    frame.DataPacket
	scratchPkt     frame.Packet
	scratchGPS     frame.GPSReport
	scratchPayload [frame.MaxPayload]byte
}

// slotTx is one transmission in a reverse data slot: the sender and its
// marshaled information bytes.
type slotTx struct {
	e    *subEntry
	info []byte
}

type subEntry struct {
	sub        *Subscriber
	fwdModel   phy.ErrorModel
	revModel   phy.ErrorModel
	chanRNG    *sim.RNG
	plan       CyclePlan
	hasPlan    bool
	planCycle  int
	listensCF2 bool
	traffic    *traffic.PoissonSource
	trafficOn  bool
	gpsOn      bool
}

type msgMeta struct {
	createdAt time.Duration
	bytes     int
}

// seriesSnap holds the counter values at the previous cycle boundary,
// for per-cycle deltas.
type seriesSnap struct {
	offered    uint64
	used       uint64
	delivered  uint64
	collisions uint64
}

// NewNetwork builds a cell simulation from cfg. The Config is validated
// and defaulted in place.
func NewNetwork(cfg Config) (*Network, error) {
	return NewNetworkOnSim(cfg, sim.New())
}

// NewNetworkOnSim builds a cell on an existing simulation kernel, so
// multiple cells (and a wired backbone between them) share one virtual
// clock.
func NewNetworkOnSim(cfg Config, kernel *sim.Simulator) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if kernel == nil {
		return nil, fmt.Errorf("core: nil simulation kernel")
	}
	root := sim.NewRNG(cfg.Seed)
	n := &Network{
		cfg:       cfg,
		sim:       kernel,
		codec:     frame.NewCodec(),
		rootRNG:   root,
		metrics:   NewMetrics(),
		byEIN:     make(map[frame.EIN]*subEntry),
		msgMeta:   make(map[uint32]msgMeta),
		fwdMeta:   make(map[uint32]msgMeta),
		nextFwdID: make(map[frame.UserID]uint16),
		allIdeal:  true,
	}
	if ir, ok := cfg.Tracer.(inlineRecorder); ok {
		// A ring-fronted terminal tracer (the flight recorder) hands the
		// per-event store to emitTrace; only the kinds in the mask still
		// travel through the Tracer interface.
		if ring, fwd := ir.ClaimInlineRing(); ring != nil {
			n.inlineRing, n.inlineFwd = ring, fwd
		}
	}
	n.base = NewBaseStation(&n.cfg, n.metrics, root.Fork("base"))
	if !n.cfg.DisableCompiledCycle {
		n.compiled = newCompiledSource(n)
		kernel.AttachSource(n.compiled)
	}
	return n, nil
}

// Metrics returns the run's metric bundle.
func (n *Network) Metrics() *Metrics { return n.metrics }

// Base returns the cell's base station.
func (n *Network) Base() *BaseStation { return n.base }

// Sim exposes the simulation kernel (for tests and custom scenarios).
func (n *Network) Sim() *sim.Simulator { return n.sim }

// Config returns the validated configuration.
func (n *Network) Config() Config { return n.cfg }

// Cycle returns the number of notification cycles started.
func (n *Network) Cycle() int { return n.cycle }

// Err returns the internal error that aborted the run, if any. Callers
// that drive the kernel themselves (e.g. multi-cell backbones) must
// check it after the kernel stops.
func (n *Network) Err() error { return n.runErr }

// Abort injects an internal failure: it records err as the run error
// and halts this cell's kernel, exactly as an internal invariant
// violation would. Multi-cell drivers (see internal/backbone) use it to
// exercise their partial-failure surfacing; like any internal error it
// poisons the network for further runs.
func (n *Network) Abort(op string, err error) { n.fail(op, err) }

// fail records the first internal error and halts the kernel; scheduled
// events after the current one never fire.
func (n *Network) fail(op string, err error) {
	if n.runErr == nil {
		n.runErr = &InternalError{Op: op, Err: err}
		n.sim.Stop()
	}
}

// Subscribers returns the subscribers in creation order.
func (n *Network) Subscribers() []*Subscriber {
	out := make([]*Subscriber, len(n.subs))
	for i, e := range n.subs {
		out[i] = e.sub
	}
	return out
}

// SubscriberByID finds an active subscriber by user ID.
func (n *Network) SubscriberByID(user frame.UserID) *Subscriber {
	if e := n.byID(user); e != nil {
		return e.sub
	}
	return nil
}

// AddSubscriber creates a subscriber that will enter the cell (start
// registering) at joinAt.
func (n *Network) AddSubscriber(ein frame.EIN, isGPS bool, joinAt time.Duration) (*Subscriber, error) {
	if _, dup := n.byEIN[ein]; dup {
		return nil, fmt.Errorf("core: duplicate EIN %d", ein)
	}
	idx := len(n.subs)
	sub := NewSubscriber(ein, isGPS, &n.cfg, n.rootRNG.ForkIndexed("sub", idx))
	e := &subEntry{
		sub:      sub,
		fwdModel: n.cfg.NewForwardModel(),
		revModel: n.cfg.NewReverseModel(),
		chanRNG:  n.rootRNG.ForkIndexed("chan", idx),
	}
	if _, ok := e.fwdModel.(phy.Ideal); !ok {
		n.allIdeal = false
	}
	if _, ok := e.revModel.(phy.Ideal); !ok {
		n.allIdeal = false
	}
	if !isGPS && n.cfg.MeanInterarrival > 0 {
		e.traffic = traffic.NewPoissonSource(n.cfg.MeanInterarrival,
			n.cfg.SizeDist, n.rootRNG.ForkIndexed("traffic", idx))
	}
	n.subs = append(n.subs, e)
	n.byEIN[ein] = e
	n.sim.After(joinAt, func() { sub.Enter(n.cycle) })
	return sub, nil
}

// Deregister signs a subscriber off administratively (base-side record
// removal plus subscriber reset).
func (n *Network) Deregister(sub *Subscriber) error {
	if sub.State() == StateActive {
		if err := n.base.Deregister(sub.ID()); err != nil {
			return err
		}
		if sub.IsGPS {
			n.trace(EventGPSLeft, sub.ID(), -1, "")
		}
	}
	sub.Deactivate()
	return nil
}

// SendToSubscriber queues an application message for downlink delivery.
// The subscriber must be active.
func (n *Network) SendToSubscriber(sub *Subscriber, size int) error {
	if sub.State() != StateActive {
		return fmt.Errorf("core: subscriber %d not active", sub.EIN)
	}
	user := sub.ID()
	id := n.nextFwdID[user]
	n.nextFwdID[user]++
	if err := n.base.EnqueueForward(user, id, size); err != nil {
		return err
	}
	n.fwdMeta[fwdKey(user, id)] = msgMeta{createdAt: n.sim.Now(), bytes: size}
	return nil
}

// Run executes the given number of notification cycles plus enough
// runway for the final cycle's reverse slots to land.
func (n *Network) Run(cycles int) error {
	start := n.sim.Now()
	if err := n.ScheduleCycles(cycles, start); err != nil {
		return err
	}
	horizon := start + time.Duration(cycles)*phy.CycleLength + phy.ReverseShift
	kerr := n.sim.Run(horizon)
	if n.runErr != nil {
		return n.runErr
	}
	if kerr == nil {
		n.FlushSeries()
	}
	return kerr
}

// FlushSeries records the series point of the most recent cycle, which
// beginCycle alone would only record when a further cycle starts. Run
// calls it automatically; callers that drive the kernel themselves
// (backbones, live servers) should call it once the run is over. It is
// idempotent and a no-op unless Config.CollectSeries is set.
func (n *Network) FlushSeries() {
	if !n.cfg.CollectSeries || n.cycle == 0 {
		return
	}
	n.recordSeriesPoint(n.cycle - 1)
}

// ScheduleCycles queues the next `cycles` notification cycles starting
// at the absolute virtual time `start` without running the kernel —
// used when several cells share one kernel (see the backbone package).
func (n *Network) ScheduleCycles(cycles int, start time.Duration) error {
	if cycles <= 0 {
		return fmt.Errorf("core: non-positive cycle count %d", cycles)
	}
	base := n.cycle
	for k := 0; k < cycles; k++ {
		k := k
		at := start + time.Duration(k)*phy.CycleLength
		if _, err := n.sim.At(at, sim.PriorityNormal, func() { n.beginCycle(base + k) }); err != nil {
			return err
		}
	}
	return nil
}

// TrackMessage registers measurement metadata for a message enqueued
// directly on a subscriber (via AddMessage), so its delivery is counted
// and timed like generated traffic.
func (n *Network) TrackMessage(user frame.UserID, msgID uint16, bytes int, createdAt time.Duration) {
	n.metrics.MessagesGenerated.Inc()
	n.metrics.BytesGenerated.Addn(uint64(bytes))
	n.metrics.PerUserGenerated[user] += uint64(bytes)
	n.msgMeta[msgKey(user, msgID)] = msgMeta{createdAt: createdAt, bytes: bytes}
	if n.tracing() {
		n.traceD(EventMessageQueued, user, -1, DetailMsgBytes, int64(msgID), int64(bytes), 0)
	}
}

// beginCycle schedules every event of notification cycle k.
func (n *Network) beginCycle(k int) {
	prevFormat := n.base.Layout().Format
	if n.cfg.CollectSeries && k > 0 {
		n.recordSeriesPoint(k - 1)
	}
	n.cycle = k + 1
	n.metrics.Cycles++
	n.base.BeginCycle()
	layout := n.base.Layout()
	cf1 := n.base.ControlFields()
	t0 := n.sim.Now()
	if n.tracing() {
		n.trace(EventCycleStart, frame.NoUser, -1, layout.Format.String())
		if prevFormat != 0 && prevFormat != layout.Format {
			n.traceD(EventFormatSwitch, frame.NoUser, -1,
				DetailFormatSwitch, int64(prevFormat), int64(layout.Format), 0)
		}
		// Announce this cycle's slot schedule so offline tools (the
		// deadline autopsy in particular) can reconstruct scheduling
		// decisions without parsing control fields.
		for i, u := range cf1.GPSSchedule {
			if u != frame.NoUser {
				n.trace(EventGPSSlotGrant, u, i, "")
			}
		}
		for i, u := range cf1.ReverseSchedule {
			if u != frame.NoUser {
				n.trace(EventDataSlotGrant, u, i, "")
			}
		}
		for i, u := range cf1.ForwardSchedule {
			if u != frame.NoUser {
				n.trace(EventForwardSlotGrant, u, i, "")
			}
		}
		if cf2u := n.base.CF2User(); cf2u != frame.NoUser {
			n.trace(EventCF2Listener, cf2u, -1, "")
		}
	}

	// Snapshot who listens to CF2 this cycle (decided last cycle).
	// Plans are NOT cleared here: the previous cycle's last reverse data
	// slot is still in flight and its handler reads the old plan. Each
	// plan carries its cycle index instead.
	for _, e := range n.subs {
		e.listensCF2 = e.sub.ListensCF2()
	}

	// CF1 delivery. The buffer is reused next cycle; the delivery event
	// below fires at CF1.End, well before then.
	cf1Air, err := n.codec.EncodeControlFieldsTo(n.cf1Buf[:0], cf1)
	if err != nil {
		n.fail("control field encode", err)
		return
	}
	n.cf1Buf = cf1Air

	// Compiled fast path: when an instance is free, the whole cycle runs
	// off a precompiled slot-action table instead of per-slot heap events
	// (see compiled.go). The two engines are observationally identical.
	if n.compiled != nil && n.compiled.activate(k, t0, layout, cf1, cf1Air) {
		return
	}

	n.sim.AfterPriority(layout.CF1.End, sim.PriorityDeliver, func() {
		n.deliverCF1All(cf1Air, layout)
	})

	// CF2 delivery.
	n.sim.AfterPriority(layout.CF2.End, sim.PriorityDeliver, func() {
		n.deliverCF2All(layout)
	})

	// Reverse GPS slots. The transmit decision happens at the slot
	// START: a report arriving mid-slot waits for the next cycle.
	for i, iv := range layout.GPS {
		i, iv := i, iv
		n.sim.AfterPriority(iv.Start, sim.PriorityLate, func() {
			n.gpsSlotStart(cf1, i, t0+iv.Start)
		})
	}

	// Reverse data slots. The last one lands after the next cycle has
	// begun; its handler knows its own cycle index.
	for i, iv := range layout.ReverseData {
		i := i
		isLast := i == layout.LastDataSlot()
		contention := cf1.ReverseSchedule[i] == frame.NoUser
		n.sim.AfterPriority(iv.End, sim.PriorityDeliver, func() {
			n.dataSlotEnd(k, i, isLast, contention)
		})
	}

	// Forward data slots.
	for i, iv := range layout.ForwardData {
		i := i
		user := cf1.ForwardSchedule[i]
		if user == frame.NoUser {
			continue
		}
		n.sim.AfterPriority(iv.End, sim.PriorityDeliver, func() {
			n.forwardSlotEnd(i, user)
		})
	}
}

// recordSeriesPoint appends the per-cycle delta for the cycle that just
// finished. Recording is idempotent per cycle so FlushSeries and the
// next beginCycle never double-count.
func (n *Network) recordSeriesPoint(cycle int) {
	if cycle < n.seriesNext {
		return
	}
	n.seriesNext = cycle + 1
	m := n.metrics
	cur := seriesSnap{
		offered:    m.DataSlotsOffered.Value(),
		used:       m.DataSlotsUsed.Value(),
		delivered:  m.MessagesDelivered.Value(),
		collisions: m.ContentionCollisions.Value(),
	}
	depth := 0
	for _, e := range n.subs {
		depth += e.sub.QueueLen()
	}
	m.Series = append(m.Series, CyclePoint{
		Cycle:             cycle,
		SlotsOffered:      int(cur.offered - n.prevSnap.offered),
		SlotsUsed:         int(cur.used - n.prevSnap.used),
		MessagesDelivered: int(cur.delivered - n.prevSnap.delivered),
		Collisions:        int(cur.collisions - n.prevSnap.collisions),
		QueueDepth:        depth,
	})
	n.prevSnap = cur
}

// deliverCF1All delivers the encoded first control-field set to every
// subscriber not waiting for CF2. It is the body of the event kernel's
// CF1 delivery event, and the compiled executor's slow CF1 action.
func (n *Network) deliverCF1All(air []byte, layout Layout) {
	for _, e := range n.subs {
		if e.sub.State() == StateIdle || e.listensCF2 {
			continue
		}
		n.deliverCF(e, air, layout)
	}
}

// deliverCF2All builds, announces, and delivers the second control-field
// set: the body of the event kernel's CF2 delivery event, and the
// compiled executor's slow CF2 action. BuildCF2 is not idempotent (its
// amendments grant slots), so anything that has already called it must
// use deliverCF2Wire instead.
func (n *Network) deliverCF2All(layout Layout) {
	cf2 := n.base.BuildCF2()
	n.announceCF2Amendments()
	n.deliverCF2Wire(cf2, layout)
}

// announceCF2Amendments traces the GPS grants added for users admitted
// after CF1 (announced at CF2 delivery, used later this same cycle).
func (n *Network) announceCF2Amendments() {
	if !n.tracing() {
		return
	}
	for _, a := range n.base.CF2Amendments() {
		n.trace(EventGPSSlotGrant, a.User, a.Slot, "cf2-amend")
	}
}

// deliverCF2Wire encodes a built CF2 set and delivers it through each
// listener's forward channel.
func (n *Network) deliverCF2Wire(cf2 *frame.ControlFields, layout Layout) {
	cf2Air, err := n.codec.EncodeControlFieldsTo(n.cf2Buf[:0], cf2)
	if err != nil {
		n.fail("control field encode", err)
		return
	}
	n.cf2Buf = cf2Air
	for _, e := range n.subs {
		if e.sub.State() == StateIdle || !e.listensCF2 {
			continue
		}
		n.metrics.CF2Listens.Inc()
		n.deliverCF(e, cf2Air, layout)
	}
}

// deliverCF passes a control-field transmission through one subscriber's
// forward link and hands the result to its state machine.
func (n *Network) deliverCF(e *subEntry, air []byte, layout Layout) {
	n.rxBuf = frame.TransmitTo(n.rxBuf[:0], air, e.fwdModel, e.chanRNG)
	cf := &n.rxCF
	if err := n.codec.DecodeControlFieldsInto(cf, n.rxBuf); err != nil {
		n.metrics.CFDecodeFailures.Inc()
		n.trace(EventCFDecodeFailed, e.sub.ID(), -1, "")
		e.plan = e.sub.OnCycleNoSchedule()
		e.hasPlan = true
		e.planCycle = n.cycle - 1
		return
	}
	e.plan = e.sub.OnControlFields(cf, layout, n.sim.Now())
	e.hasPlan = true
	e.planCycle = n.cycle - 1
	e.sub.ObservePaging(cf)
	n.maybeStartSources(e)
}

// maybeStartSources launches traffic generation once a subscriber
// becomes active.
func (n *Network) maybeStartSources(e *subEntry) {
	if e.sub.State() != StateActive {
		return
	}
	if e.sub.IsGPS && !e.gpsOn {
		e.gpsOn = true
		phase := time.Duration(e.chanRNG.Intn(int(n.cfg.GPSPeriod)))
		var tick func()
		tick = func() {
			if e.sub.State() != StateActive {
				e.gpsOn = false
				return
			}
			n.metrics.GPSGenerated.Inc()
			if !e.sub.AddGPSReport(n.sim.Now()) {
				// The previous report was never sent: stale, dropped.
				n.metrics.GPSLost.Inc()
				n.metrics.GPSDeadlineViolations.Inc()
				n.trace(EventGPSDeadlineViolation, e.sub.ID(), -1,
					"stale: previous report replaced before it could be transmitted")
			}
			n.trace(EventGPSQueued, e.sub.ID(), -1, "")
			n.sim.After(n.cfg.GPSPeriod, tick)
		}
		n.sim.After(phase, tick)
	}
	if !e.sub.IsGPS && e.traffic != nil && !e.trafficOn {
		e.trafficOn = true
		var arrive func()
		arrive = func() {
			if e.sub.State() != StateActive {
				e.trafficOn = false
				return
			}
			now := n.sim.Now()
			msg := e.traffic.NewMessage(now)
			// The MAC-level message ID assigned by AddMessage, captured
			// before the call so trace events match data-packet headers.
			macID := e.sub.NextMsgID()
			if e.sub.AddMessage(msg.Bytes, now) {
				n.metrics.MessagesGenerated.Inc()
				n.metrics.BytesGenerated.Addn(uint64(msg.Bytes))
				n.metrics.PerUserGenerated[e.sub.ID()] += uint64(msg.Bytes)
				n.msgMeta[msgKey(e.sub.ID(), uint16(msg.ID))] = msgMeta{createdAt: now, bytes: msg.Bytes}
				if n.tracing() {
					n.traceD(EventMessageQueued, e.sub.ID(), -1,
						DetailMsgBytes, int64(macID), int64(msg.Bytes), 0)
				}
			} else {
				n.metrics.MessagesDropped.Inc()
				if n.tracing() {
					n.traceD(EventMessageDropped, e.sub.ID(), -1,
						DetailQueueFull, int64(msg.Bytes), 0, 0)
				}
			}
			n.sim.After(e.traffic.NextGap(), arrive)
		}
		n.sim.After(e.traffic.NextGap(), arrive)
	}
}

// gpsSlotStart resolves one GPS slot: the holder transmits its pending
// report, if one arrived before the slot began.
func (n *Network) gpsSlotStart(cf *frame.ControlFields, slot int, txStart time.Duration) {
	holder := cf.GPSSchedule[slot]
	if holder == frame.NoUser {
		return
	}
	e := n.byID(holder)
	if e == nil || !e.hasPlan || e.planCycle != n.cycle-1 || e.plan.GPSSlot != slot {
		return
	}
	if _, pending := e.sub.GPSPendingSince(); !pending {
		return
	}
	rep := &n.scratchGPS
	arrival, ok := e.sub.MakeGPSReportInto(rep)
	if !ok {
		return
	}
	delay := txStart - arrival
	n.metrics.GPSAccessDelay.AddDuration(delay)
	if delay > phy.GPSAccessDeadline {
		n.metrics.GPSDeadlineViolations.Inc()
		if n.tracing() {
			n.traceD(EventGPSDeadlineViolation, holder, slot,
				DetailGPSLate, int64(delay), int64(phy.GPSAccessDeadline), 0)
		}
	}
	body, err := rep.MarshalTo(n.infoBuf[:0])
	if err != nil {
		return
	}
	n.infoBuf = body
	// GPS packets carry 72 information bits in 256 coded bits — a rate
	// ~0.28 code comparable in strength to the RS(64,48) protecting data
	// slots. Model that protection by tolerating the same number of
	// corrupted bytes as the RS correction radius; heavier corruption
	// (the burst regime) loses the report, which is never retransmitted.
	n.rxBuf = append(n.rxBuf[:0], body...)
	changed := 0
	if e.revModel != nil {
		changed = e.revModel.Corrupt(n.rxBuf, e.chanRNG)
	}
	if changed > gpsCorrectableBytes {
		n.metrics.GPSLost.Inc()
		n.trace(EventGPSLost, holder, slot, "channel burst")
		return
	}
	if _, ok := n.base.RecordGPS(body); ok && n.tracing() {
		n.traceD(EventGPSRx, holder, slot, DetailGPSDelay, int64(delay), 0, 0)
	}
}

// gpsCorrectableBytes is the error tolerance credited to the GPS
// packet's heavy channel code (matched to the RS t=8 of data slots).
const gpsCorrectableBytes = 8

// dataSlotEnd resolves one reverse data slot: scheduled owner and/or
// contenders transmit; collisions destroy everything.
func (n *Network) dataSlotEnd(cycle, slot int, isLast, contention bool) {
	// The last slot of cycle k lands after cycle k+1 began; its ACK
	// belongs to the previous ACK window.
	intoPrev := cycle != n.cycle-1

	// Scheduled packets marshal into the slot's share of infoBuf and
	// decode into decBuf; RecordReverse parses the surviving payload
	// into a packet of its own, so neither buffer outlives this slot.
	txs := n.slotTxs[:0]
	infos := n.infoBuf[:0]
	for _, e := range n.subs {
		if !e.hasPlan || e.planCycle != cycle {
			continue
		}
		if !contention {
			for _, s := range e.plan.DataSlots {
				if s == slot && e.sub.MakeDataPacketInto(slot, &n.scratchData, n.scratchPayload[:]) {
					off := len(infos)
					if grown, err := n.scratchData.MarshalTo(infos); err == nil {
						infos = grown
						txs = append(txs, slotTx{e: e, info: infos[off:]})
						n.metrics.FragmentsSent.Inc()
					}
				}
			}
		}
		if e.plan.ContentionSlot == slot {
			info, err := e.sub.MakeContentionPacket()
			if err == nil && info != nil {
				txs = append(txs, slotTx{e: e, info: info})
				if n.tracing() {
					n.trace(EventContentionTx, e.sub.ID(), slot, e.plan.ContentionKind.String())
				}
			}
		}
	}
	n.infoBuf = infos

	payloads := n.rxInfos[:0]
	decoded := n.decBuf[:0]
	for _, t := range txs {
		cw, err := n.codec.EncodePayloadTo(n.encBuf[:0], t.info)
		if err != nil {
			continue
		}
		n.encBuf = cw
		n.rxBuf = frame.TransmitTo(n.rxBuf[:0], cw, t.e.revModel, t.e.chanRNG)
		off := len(decoded)
		grown, err := n.codec.DecodePayloadTo(decoded, n.rxBuf)
		if err != nil {
			payloads = append(payloads, nil) // loss
			continue
		}
		decoded = grown
		payloads = append(payloads, decoded[off:])
	}
	n.slotTxs, n.rxInfos, n.decBuf = txs, payloads, decoded

	out := n.base.RecordReverse(slot, intoPrev, isLast, payloads, contention)
	if out.Collision && n.tracing() {
		n.traceD(EventCollision, frame.NoUser, slot, DetailCollision, int64(len(payloads)), 0, 0)
	}
	if out.Received == nil && !out.Collision && len(payloads) == 1 && !contention {
		n.trace(EventDataLost, frame.NoUser, slot, "rs decode failure")
	}
	n.handleOutcome(out, cycle, slot)
}

// handleOutcome turns base-station reception outcomes into metrics.
// slot is the reverse data slot the reception arrived in, so span
// stitching can attribute receptions to schedule grants.
func (n *Network) handleOutcome(out ReverseOutcome, cycle, slot int) {
	if out.Received == nil {
		return
	}
	now := n.sim.Now()
	switch out.Received.Type {
	case frame.TypeData:
		h := out.Received.Data.Header
		if n.tracing() {
			n.traceD(EventDataRx, h.User, slot, DetailDataFrag, int64(h.MsgID), int64(h.Frag)+1, int64(h.FragTotal))
			if h.MoreSlots > 0 {
				n.traceD(EventPiggybackRx, h.User, slot, DetailPiggyback, int64(h.MoreSlots), 0, 0)
			}
		}
		n.noteDemandHeard(h.User, now)
		if out.MessageComplete {
			key := msgKey(out.User, out.MsgID)
			if meta, ok := n.msgMeta[key]; ok {
				n.metrics.MessagesDelivered.Inc()
				n.metrics.MessageDelay.AddDuration(now - meta.createdAt)
				if n.tracing() {
					n.traceD(EventMessageComplete, out.User, slot,
						DetailMsgComplete, int64(out.MsgID), int64(out.Bytes), int64(now-meta.createdAt))
				}
				delete(n.msgMeta, key)
			}
			if n.OnUplinkComplete != nil {
				n.OnUplinkComplete(out.User, out.MsgID, out.Bytes)
			}
		}
	case frame.TypeReservation:
		r := out.Received.Reservation
		if n.tracing() {
			if r.Slots == 0 {
				n.trace(EventPageResponse, r.User, slot, "")
			} else {
				n.traceD(EventReservationRx, r.User, slot, DetailSlots, int64(r.Slots), 0, 0)
			}
		}
		n.noteDemandHeard(r.User, now)
	case frame.TypeRegistration:
		if n.tracing() {
			n.traceD(EventRegistrationRx, frame.NoUser, slot, DetailEIN, int64(out.Received.Register.EIN), 0, 0)
		}
		if out.NewRegistration {
			if n.tracing() {
				n.traceD(EventRegistered, out.AssignedID, slot, DetailEIN, int64(out.Received.Register.EIN), 0, 0)
				if out.Received.Register.WantGPS {
					n.traceD(EventGPSAdmitted, out.AssignedID, n.base.GPSTable().SlotOf(out.AssignedID),
						DetailEIN, int64(out.Received.Register.EIN), 0, 0)
				}
			}
			if e, ok := n.byEIN[out.Received.Register.EIN]; ok {
				n.metrics.RegistrationLatency.Add(float64(e.sub.RegistrationCycles(cycle)))
			}
		}
	}
}

// noteDemandHeard closes the reservation-latency clock for a user whose
// demand just reached the base station.
func (n *Network) noteDemandHeard(user frame.UserID, now time.Duration) {
	e := n.byID(user)
	if e == nil {
		return
	}
	if since, ok := e.sub.NeedSince(); ok {
		n.metrics.ReservationLatency.AddDuration(now - since)
		e.sub.ClearNeed()
	}
}

// forwardSlotEnd delivers one forward data slot to its scheduled user.
// slot is the forward slot index (traced so span stitching can verify
// forward-channel constraints like the CF2-listener slot-0 exclusion).
func (n *Network) forwardSlotEnd(slot int, user frame.UserID) {
	pkt := n.base.PopForward(user)
	if pkt == nil {
		return
	}
	n.metrics.ForwardPktsSent.Inc()
	e := n.byID(user)
	if e == nil || !e.hasPlan || e.planCycle != n.cycle-1 {
		return // subscriber missed the control fields: not listening
	}
	info, err := pkt.MarshalTo(n.infoBuf[:0])
	if err != nil {
		return
	}
	n.infoBuf = info
	cw, err := n.codec.EncodePayloadTo(n.encBuf[:0], info)
	if err != nil {
		return
	}
	n.encBuf = cw
	n.rxBuf = frame.TransmitTo(n.rxBuf[:0], cw, e.fwdModel, e.chanRNG)
	decoded, err := n.codec.DecodePayloadTo(n.decBuf[:0], n.rxBuf)
	if err != nil {
		return
	}
	n.decBuf = decoded
	// UnmarshalPacket copies the payload, so parsed does not alias
	// decBuf.
	parsed, err := frame.UnmarshalPacket(decoded)
	if err != nil || parsed.Type != frame.TypeData {
		return
	}
	n.metrics.ForwardPktsDelivered.Inc()
	if n.tracing() {
		n.traceD(EventForwardTx, user, slot, DetailForwardFrag, int64(parsed.Data.Header.MsgID), int64(parsed.Data.Header.Frag), 0)
	}
	if done, msgID, _ := e.sub.ReceiveForward(parsed.Data); done {
		delete(n.fwdMeta, fwdKey(user, msgID))
	}
}

// byID finds the entry of an active subscriber by user ID.
func (n *Network) byID(user frame.UserID) *subEntry {
	if user == frame.NoUser {
		return nil
	}
	for _, e := range n.subs {
		if e.sub.State() == StateActive && e.sub.ID() == user {
			return e
		}
	}
	return nil
}

func msgKey(user frame.UserID, msgID uint16) uint32 {
	return uint32(user)<<16 | uint32(msgID)
}

func fwdKey(user frame.UserID, msgID uint16) uint32 {
	return uint32(user)<<16 | uint32(msgID)
}
