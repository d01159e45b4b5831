// Package openflow implements the OpenFlow data model NICE checks
// controller programs against: packets, wildcard matches, actions, flow
// tables with highest-priority-match semantics, the controller/switch
// message vocabulary, and the simplified switch model of §2.2.2 of the
// paper (FIFO channels, process_pkt / process_of transitions, a canonical
// flow-table representation, and an optional channel fault model).
//
// Everything in this package is plain data: values are comparable or
// forked copy-on-write, and every stateful object has a structural hash the
// model checker fingerprints system states with (hash.go) and a
// canonical string form its differential oracle reads (keys.go; see
// internal/canon for both).
package openflow
