// Package dsms implements the transport of the tutorial's end-to-end
// 3-level architecture (slides 14-15, 54-55): resource-limited low-level
// DSMS nodes at the observation points ship their reduced streams to a
// resource-rich high-level node over a fault-tolerant session transport
// (slide 55), and sites keep a continuous distributed aggregate within a
// precision bound with the adaptive-filter protocol [OJW03]. Which part
// of a query runs at which level (slide 54) is the planner's concern:
// see query.Decompose.
package dsms
