// Command droidbrokerd is the remote broker daemon: it boots one or more
// virtual device models, runs the device-side probing pass on each, and
// serves each device's execution broker on its own TCP port using the
// ADB-stand-in transport — the device farm half of the paper's deployment
// shape (§IV-A, host-side engine per remote device). A droidfleet host
// dials the ports with -remote and drives full campaigns over the wire.
//
// Usage:
//
//	droidbrokerd -devices A1,B -listen 127.0.0.1:7100
//
// Device i listens on the base port + i; the daemon prints each binding and
// a final "ready" line once every listener is up, then serves until
// SIGINT/SIGTERM, which closes the listeners and exits cleanly.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/device"
	"droidfuzz/internal/feedback"
	"droidfuzz/internal/probe"
)

func main() {
	var (
		devices = flag.String("devices", "A1", "comma-separated device model IDs, one broker per device")
		listen  = flag.String("listen", "127.0.0.1:7100", "base TCP address; device i listens on port+i")
	)
	flag.Parse()

	if err := run(*devices, *listen); err != nil {
		fmt.Fprintln(os.Stderr, "droidbrokerd:", err)
		os.Exit(1)
	}
}

// parseDevices validates the -devices flag against the Table I models.
func parseDevices(devices string) ([]string, error) {
	valid := device.IDs()
	var ids []string
	for _, id := range strings.Split(devices, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("unknown device model %q (valid: %s)",
				id, strings.Join(valid, ", "))
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no devices configured (valid: %s)", strings.Join(valid, ", "))
	}
	return ids, nil
}

func run(devices, listen string) error {
	ids, err := parseDevices(devices)
	if err != nil {
		return err
	}
	host, portStr, err := net.SplitHostPort(listen)
	if err != nil {
		return fmt.Errorf("bad -listen address %q: %w", listen, err)
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("bad -listen port %q: %w", portStr, err)
	}

	var listeners []net.Listener
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	done := make(chan error, len(ids))
	for i, id := range ids {
		srv, model, nIfaces, err := buildServer(id)
		if err != nil {
			return fmt.Errorf("boot %s: %w", id, err)
		}
		addr := net.JoinHostPort(host, strconv.Itoa(basePort+i))
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return fmt.Errorf("listen %s: %w", addr, err)
		}
		listeners = append(listeners, ln)
		fmt.Printf("droidbrokerd: %s (%s) listening on %s (%d interfaces, %d seeds)\n",
			model.ID, model.Name, ln.Addr(), nIfaces, len(srv.Seeds))
		go func() { done <- srv.ServeTCP(ln) }()
	}
	fmt.Println("droidbrokerd: ready")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("droidbrokerd: %v, shutting down\n", s)
		return nil
	case err := <-done:
		return fmt.Errorf("serve: %w", err)
	}
}

// buildServer boots one device, probes its HALs, and wraps the attached
// broker plus the distilled seed workloads as a transport server — the
// exact attach sequence the in-process path performs, so a remote engine
// sees the same target surface and corpus bootstrap.
func buildServer(modelID string) (*adb.Server, device.Model, int, error) {
	model, err := device.ModelByID(modelID)
	if err != nil {
		return nil, device.Model{}, 0, err
	}
	dev := device.New(model)
	target, pr, err := probe.Target(dev, probe.Options{})
	if err != nil {
		return nil, model, 0, err
	}
	seeds := make([]string, len(pr.Seeds))
	for i, p := range pr.Seeds {
		seeds[i] = p.String()
	}
	broker := adb.NewBroker(dev, target)
	srv := &adb.Server{X: broker, Seeds: seeds}
	// One uplink filter per served connection: summary-mode batches ship
	// full traces only for executions that produced new signal against the
	// connection's accumulated view (interesting-only uplink).
	srv.NewFilter = func() adb.UplinkFilter { return feedback.NewUplinkFilter(target) }
	return srv, model, len(target.Calls()), nil
}
