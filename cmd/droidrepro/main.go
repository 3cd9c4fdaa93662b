// Command droidrepro executes a DSL program file (a corpus entry or a bug
// reproducer) against a freshly booted device model and reports the
// per-call outcomes, crashes, and the kernel console tail — the manual
// reproduction step of the paper's triage.
//
// Usage:
//
//	droidrepro -device A1 repro.prog
//	droidrepro -device C1 -n 3 crash.prog    # repeat across reboots
package main

import (
	"flag"
	"fmt"
	"os"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/device"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/probe"
)

func main() {
	var (
		deviceID = flag.String("device", "A1", "device model ID")
		repeat   = flag.Int("n", 1, "executions (device reboots in between)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: droidrepro [-device ID] [-n N] <file.prog>")
		os.Exit(2)
	}
	if err := run(*deviceID, flag.Arg(0), *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "droidrepro:", err)
		os.Exit(1)
	}
}

func run(deviceID, path string, repeat int) error {
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	model, err := device.ModelByID(deviceID)
	if err != nil {
		return err
	}
	dev := device.New(model)
	target, _, err := probe.Target(dev, probe.Options{})
	if err != nil {
		return err
	}
	prog, err := dsl.ParseProg(target, string(text))
	if err != nil {
		return err
	}
	broker := adb.NewBroker(dev, target)

	crashed := 0
	for i := 0; i < repeat; i++ {
		res, err := broker.ExecProg(prog)
		if err != nil {
			return err
		}
		fmt.Printf("=== run %d/%d ===\n", i+1, repeat)
		for j, c := range res.Calls {
			status := c.Errno
			if !c.Executed {
				status = "(not executed)"
			}
			fmt.Printf("  call %d %-45s %-12s ret=%#x cover=%d\n",
				j, prog.Calls[j].Desc.Name, status, c.Ret, len(c.Cover))
		}
		if len(res.Crashes) > 0 {
			crashed++
			for _, cr := range res.Crashes {
				fmt.Printf("  CRASH [%s/%s]: %s\n", cr.Kind, cr.Component, cr.Title)
			}
			if len(res.Dmesg) > 0 {
				fmt.Println("  --- dmesg tail ---")
				for _, line := range res.Dmesg {
					fmt.Println("  " + line)
				}
			}
		}
		broker.Reboot()
	}
	fmt.Printf("\n%d/%d executions crashed\n", crashed, repeat)
	return nil
}
