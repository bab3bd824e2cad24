package hub

import "hublab/internal/graph"

// DecodeRunForTest exposes the run decoder for split timing.
func (c *CompactLabeling) DecodeRunForTest(v graph.NodeID, ids []graph.NodeID, ds []graph.Weight) ([]graph.NodeID, []graph.Weight) {
	return c.decodeRun(v, ids, ds)
}
