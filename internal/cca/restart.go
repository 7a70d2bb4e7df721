package cca

// Every registered algorithm is a plain value struct whose factory returns
// the zero value (BBR aside, which carries its version parameters), so
// restarting is a struct reset.

// Restart implements CongestionControl.
func (r *Reno) Restart() { *r = Reno{} }

// Restart implements CongestionControl.
func (c *Cubic) Restart() { *c = Cubic{} }

// Restart implements CongestionControl.
func (d *DCTCP) Restart() { *d = DCTCP{} }

// Restart implements CongestionControl.
func (v *Vegas) Restart() { *v = Vegas{} }

// Restart implements CongestionControl.
func (s *Scalable) Restart() { *s = Scalable{} }

// Restart implements CongestionControl.
func (h *HighSpeed) Restart() { *h = HighSpeed{} }

// Restart implements CongestionControl.
func (w *Westwood) Restart() { *w = Westwood{} }

// Restart implements CongestionControl.
func (b *Baseline) Restart() { *b = Baseline{} }

// Restart implements CongestionControl, preserving the version
// parameters that distinguish bbr from bbr2.
func (b *BBR) Restart() { *b = BBR{params: b.params} }

// Restart implements CongestionControl.
func (s *Swift) Restart() { *s = Swift{} }

// Restart implements CongestionControl.
func (d *DCQCN) Restart() { *d = DCQCN{} }

// Restart implements CongestionControl.
func (h *HPCC) Restart() { *h = HPCC{} }
