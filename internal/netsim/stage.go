package netsim

import "greenenvy/internal/sim"

// stage is a fixed-delay pipeline shared by every link and switch of one
// topology that has its delay: the links' propagation, the switches'
// forwarding latency. An element hands each packet in with the handler it
// is bound for, due one delay after now. The clock never runs backwards, so
// due times are nondecreasing across all of the elements, and one FIFO
// delay line serves them all: the engine's heap holds one event per stage,
// not one per element with packets in flight, and one ring holds every
// packet in flight. Each delivery keeps the (time, sequence) rank it took
// when it was scheduled, so deliveries fire in the order, and in the
// number, that a line per element gave.
//
// The delay is fixed at build: changed mid-run, it would reorder the
// packets of every other element on the stage (the line panics when due
// times go backwards).
type stage struct {
	eng   *sim.Engine
	delay sim.Duration
	line  sim.DelayLine[stage, delivery]
}

// delivery is one packet in a stage with the handler it leaves for.
type delivery struct {
	to Handler
	p  *Packet
}

// newStage returns an empty stage of the given delay on e.
func newStage(e *sim.Engine, delay sim.Duration) *stage {
	s := &stage{eng: e, delay: delay}
	s.line.Init(e, s, (*stage).deliver)
	return s
}

// send hands p to to one delay from now.
func (s *stage) send(to Handler, p *Packet) {
	s.line.Schedule(delivery{to: to, p: p}, s.eng.Now()+s.delay)
}

// deliver hands a packet leaving the stage to its handler.
func (s *stage) deliver(d delivery) { d.to.HandlePacket(d.p) }

// stages hands a topology builder one stage per distinct delay. A topology
// has few distinct delays (a fat-tree two, a dumbbell one per distinct
// access delay), so a linear scan finds them.
type stages struct {
	eng *sim.Engine
	all []*stage
}

// of returns the stage of the given delay, made on first use.
func (ss *stages) of(delay sim.Duration) *stage {
	for _, s := range ss.all {
		if s.delay == delay {
			return s
		}
	}
	s := newStage(ss.eng, delay)
	ss.all = append(ss.all, s)
	return s
}

// pipeline returns the stage for a switch latency, or nil for a switch
// that forwards at once.
func (ss *stages) pipeline(delay sim.Duration) *stage {
	if delay <= 0 {
		return nil
	}
	return ss.of(delay)
}
