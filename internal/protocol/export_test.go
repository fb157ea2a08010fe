package protocol

// InSub reports whether SUBPROTOCOL is currently running.
func (d *Dense) InSub() bool { return d.sub != nil }

// CurrentPhase returns the Section 4 strategy the monitor is in.
func (m *TopKProto) CurrentPhase() Phase { return m.phase }
