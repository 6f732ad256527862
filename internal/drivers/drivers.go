// Package drivers registers every built-in NetIbis link utilization
// driver with the driver framework. Importing it (usually blank) makes
// the textual stack specifications such as
// "zip/multi:streams=4/tcpblk" resolvable.
package drivers

import (
	// The individual drivers register themselves in their init functions.
	_ "netibis/internal/drivers/multi"
	_ "netibis/internal/drivers/secure"
	_ "netibis/internal/drivers/tcpblk"
	_ "netibis/internal/drivers/zip"
)
