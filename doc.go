// Package netibis is a Go reproduction of "Wide-Area Communication for
// Grids: An Integrated Solution to Connectivity, Performance and
// Security Problems" (Denis, Aumage, Hofman, Verstoep, Kielmann, Bal —
// HPDC 2004).
//
// The implementation lives under internal/: the emulated wide-area
// internetwork (emunet), the connection establishment methods and
// decision tree (estab), the routed-messages relay (relay), the SOCKS
// proxy (socks), the Ibis Name Service (nameservice), the link
// utilization driver stacks (driver, drivers/*), the Ibis Portability
// Layer abstractions (ipl) and the NetIbis integration layer (core).
// ./benchmark measures the real stack and the netibis-bench command runs
// the churn/scale suite; see DESIGN.md and EXPERIMENTS.md.
package netibis
