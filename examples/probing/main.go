// Probing: a close look at the pre-testing HAL driver probing pass
// (paper §IV-B, Fig. 3) and the cross-boundary feedback it enables. The
// example probes a device, prints the extracted interface syntax and
// weights, then executes one distilled framework workload through the
// ADB-stand-in transport and shows the HAL-origin syscall trace that
// directional coverage is built from.
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"sort"

	"droidfuzz"
	"droidfuzz/internal/adb"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/probe"
)

func main() {
	dev, err := droidfuzz.NewDevice("C1") // the Sunmi commercial tablet
	if err != nil {
		log.Fatal(err)
	}

	// Probe the device and build the combined syscall+HAL target from
	// what the pass extracted.
	target, pr, err := probe.Target(dev, probe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("probing %s: %d services, %d interfaces, %d workload seeds\n\n",
		dev.Model.ID, len(pr.Services), len(pr.Interfaces), len(pr.Seeds))

	// Interfaces sorted by normalized-occurrence weight.
	ifaces := append([]*dsl.CallDesc(nil), pr.Interfaces...)
	sort.Slice(ifaces, func(i, j int) bool {
		if ifaces[i].Weight != ifaces[j].Weight {
			return ifaces[i].Weight > ifaces[j].Weight
		}
		return ifaces[i].Name < ifaces[j].Name
	})
	fmt.Println("highest-weighted interfaces:")
	for _, d := range ifaces[:6] {
		fmt.Printf("  %.2f %s\n", d.Weight, d.Name)
	}

	// Serve a broker over an in-memory transport exactly like the TCP
	// deployment: each dial opens a pipe and serves its device end.
	srv := &adb.Server{X: adb.NewBroker(dev, target)}
	r, err := adb.NewResilient(func() (io.ReadWriteCloser, error) {
		host, devSide := net.Pipe()
		go func() { _ = srv.Serve(devSide) }()
		return host, nil
	}, adb.ResilientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	if err := r.Ping(); err != nil {
		log.Fatal(err)
	}

	// Execute the first distilled workload seed remotely.
	seed := pr.Seeds[0]
	fmt.Printf("\nexecuting distilled workload over the transport:\n%s\n", seed.String())
	res, err := r.Exec(adb.ExecRequest{ProgText: seed.String()})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("kernel coverage: %d PCs\n", len(res.KernelCov))
	fmt.Printf("HAL-origin syscall trace (%d events) — the raw material of directional coverage:\n",
		len(res.HALTrace))
	for _, ev := range res.HALTrace {
		fmt.Printf("  pid=%d %-6s %-14s arg=%#x\n", ev.PID, ev.NR, ev.Path, ev.Arg)
	}
}
