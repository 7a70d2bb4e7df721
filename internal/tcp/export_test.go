package tcp

// Outgrown reports which of the sender's inline first arrays its flows have
// outgrown: the window's and the two retransmission fifos'.
func (s *Sender) Outgrown() (window, retxQueue, retxWatch bool) {
	return cap(s.segStore) > windowFirst, cap(s.retxQueue.buf) > fifoFirst, cap(s.retxWatch.buf) > fifoFirst
}

// Outgrown reports whether the receiver's out-of-order set has outgrown its
// inline first array.
func (r *Receiver) Outgrown() bool { return cap(r.ooo.ranges) > rangeSetFirst }
