package sensor

// PayloadCensus calls visit with every batch the client holds between
// sends: each one on its free list, and each one a worker's re-send cache
// holds.
func (c *Client) PayloadCensus(visit func(p any, cached bool)) {
	for _, b := range c.batches {
		visit(b, false)
	}
	for _, st := range c.states {
		if b := st.last.batch; b != nil {
			visit(b, true)
		}
	}
}

// PayloadCensus calls visit with every forward list the server holds
// between sends: each one on its free list.
func (sv *Server) PayloadCensus(visit func(p any, cached bool)) {
	for _, l := range sv.lists {
		visit(l, false)
	}
}
