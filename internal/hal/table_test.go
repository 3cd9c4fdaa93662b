package hal

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/bugs"
)

// halServices lists every HAL service type: its constructor, the method
// list its reflection reply must carry, and how many allocations a respawn
// may make — the service struct plus each state map it owns.
var halServices = []struct {
	desc, label string
	build       func(*Sys, bugs.Set) binder.Service
	allocs      float64
	methods     []string
}{
	{GraphicsDescriptor, "Graphics",
		func(s *Sys, b bugs.Set) binder.Service { return NewGraphics(s, b) }, 2, []string{
			"1 createLayer(width int[1,4096], height int[1,4096], format flags[1 2 3]) hal_layer",
			"2 destroyLayer(layer resource<hal_layer>)",
			"3 setLayerBuffer(layer resource<hal_layer>, slot int[0,7])",
			"4 presentDisplay()",
			"5 setPowerMode(mode flags[0 1 2 3])",
			"6 getDisplayAttribute(attribute int[1,3])",
			"7 getInterfaceVersion()",
			"8 getCapabilities()",
			"9 getStatistics(counter int[0,15])",
			"10 debugDump(verbosity int[0,3])",
		}},
	{MediaDescriptor, "Media",
		func(s *Sys, b bugs.Set) binder.Service { return NewMedia(s, b) }, 2, []string{
			`1 createCodec(mime string["audio/aac" "audio/opus" "audio/raw"], lowLatency flags[0 1], periodHint int[0,4096]) hal_codec`,
			"2 queueBuffer(codec resource<hal_codec>, data buffer[1024])",
			"3 flush(codec resource<hal_codec>)",
			"4 drain(codec resource<hal_codec>)",
			"5 releaseCodec(codec resource<hal_codec>)",
			"6 getMetrics()",
			"7 getInterfaceVersion()",
			"8 getCapabilities()",
			"9 getStatistics(counter int[0,15])",
			"10 debugDump(verbosity int[0,3])",
		}},
	{CameraDescriptor, "Camera",
		func(s *Sys, b bugs.Set) binder.Service { return NewCamera(s, b) }, 2, []string{
			"1 openStream(width flags[640 1280 1920 3840], height flags[480 720 1080 2160], format flags[1448695129 842094158 1196444237]) hal_stream",
			"2 startCapture(stream resource<hal_stream>)",
			"3 captureFrame(stream resource<hal_stream>)",
			"4 stopCapture(stream resource<hal_stream>)",
			"5 setParameter(stream resource<hal_stream>, id int[1,64], value int[0,65536])",
			"6 closeStream(stream resource<hal_stream>)",
			"7 getInterfaceVersion()",
			"8 getCapabilities()",
			"9 getStatistics(counter int[0,15])",
			"10 debugDump(verbosity int[0,3])",
		}},
	{AudioDescriptor, "Audio",
		func(s *Sys, b bugs.Set) binder.Service { return NewAudio(s, b) }, 2, []string{
			"1 openOutput(rate flags[8000 16000 44100 48000 96000], channels int[1,8]) hal_audio",
			"2 writeAudio(stream resource<hal_audio>, frames buffer[1024])",
			"3 setVolume(volume int[0,100])",
			"4 standby(stream resource<hal_audio>)",
			"5 getPosition(stream resource<hal_audio>)",
			"6 getInterfaceVersion()",
			"7 getCapabilities()",
			"8 getStatistics(counter int[0,15])",
			"9 debugDump(verbosity int[0,3])",
		}},
	{BluetoothDescriptor, "Bluetooth",
		func(s *Sys, b bugs.Set) binder.Service { return NewBluetooth(s, b) }, 1, []string{
			"1 enable()",
			"2 disable()",
			"3 startDiscovery(mode flags[1 2 3])",
			"4 getSupportedCodecs()",
			"5 connect(peer int[1,65535]) hal_btconn",
			"6 acceptConnection()",
			"7 disconnect(conn resource<hal_btconn>)",
			"8 sendHciCommand(opcode int[0,65535], params buffer[32])",
			"9 getInterfaceVersion()",
			"10 getCapabilities()",
			"11 getStatistics(counter int[0,15])",
			"12 debugDump(verbosity int[0,3])",
		}},
	{NFCDescriptor, "Nfc",
		func(s *Sys, b bugs.Set) binder.Service { return NewNFC(s, b) }, 1, []string{
			"1 enable()",
			"2 disable()",
			"3 transceive(frame buffer[255])",
			"4 firmwareUpdate(image buffer[120])",
			"5 getInterfaceVersion()",
			"6 getCapabilities()",
			"7 getStatistics(counter int[0,15])",
			"8 debugDump(verbosity int[0,3])",
		}},
	{SensorsDescriptor, "Sensors",
		func(s *Sys, b bugs.Set) binder.Service { return NewSensors(s, b) }, 1, []string{
			"1 activate(sensor int[0,7], enabled flags[0 1])",
			"2 batch(sensor int[0,7], rateHz int[1,1000])",
			"3 poll()",
			"4 getInterfaceVersion()",
			"5 getCapabilities()",
			"6 getStatistics(counter int[0,15])",
			"7 debugDump(verbosity int[0,3])",
		}},
	{USBDescriptor, "Usb",
		func(s *Sys, b bugs.Set) binder.Service { return NewUSB(s, b) }, 1, []string{
			"1 setPortRole(role flags[0 1 2 3])",
			"2 enableContract(millivolts flags[5000 9000 12000 15000 20000])",
			"3 startToggling()",
			"4 reprobeChip()",
			"5 queryPortStatus()",
			"6 setAlertMask(mask int[0,65535])",
			"7 getInterfaceVersion()",
			"8 getCapabilities()",
			"9 getStatistics(counter int[0,15])",
			"10 debugDump(verbosity int[0,3])",
		}},
	{ThermalDescriptor, "Thermal",
		func(s *Sys, b bugs.Set) binder.Service { return NewThermal(s, b) }, 1, []string{
			"1 getTemperature(zone int[0,3])",
			"2 setThrottling(zone int[0,3], tripMilliC int[0,120000])",
			"3 setPolicy(policy flags[0 1 2])",
			"4 getInterfaceVersion()",
			"5 getCapabilities()",
			"6 getStatistics(counter int[0,15])",
			"7 debugDump(verbosity int[0,3])",
		}},
	{InputDescriptor, "Input",
		func(s *Sys, b bugs.Set) binder.Service { return NewInput(s, b) }, 1, []string{
			"1 calibrate(refx int[0,1079], refy int[0,1919])",
			"2 setMode(mode flags[1 2 3])",
			"3 injectSwipe(x0 int[0,1000], y0 int[0,1800], steps int[1,6])",
			"4 firmwareUpdate(version int[1,65535], payload buffer[48])",
			"5 selfTest()",
			"6 getInterfaceVersion()",
			"7 getCapabilities()",
			"8 getStatistics(counter int[0,15])",
			"9 debugDump(verbosity int[0,3])",
		}},
}

// formatMethod renders a reflected signature on one line: code, name,
// each argument's kind with its range or choices, and the produced
// resource.
func formatMethod(m binder.MethodSig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %s(", m.Code, m.Name)
	for i, a := range m.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name + " ")
		switch a.Kind {
		case "int":
			fmt.Fprintf(&b, "int[%d,%d]", a.Min, a.Max)
		case "flags":
			fmt.Fprintf(&b, "flags%v", a.Choices)
		case "buffer":
			fmt.Fprintf(&b, "buffer[%d]", a.BufLen)
		case "string":
			fmt.Fprintf(&b, "string%q", a.StrChoices)
		default:
			fmt.Fprintf(&b, "%s<%s>", a.Kind, a.Res)
		}
	}
	b.WriteString(")")
	if m.Ret != "" {
		b.WriteString(" " + m.Ret)
	}
	return b.String()
}

// reflectMethods asks a process for its method table, as the probing
// pass and framework stubs do, and formats each entry.
func reflectMethods(t *testing.T, p *Process) []string {
	t.Helper()
	out := binder.NewParcel()
	if st := p.Transact(binder.InterfaceTransaction, binder.NewParcel(), out); st != binder.StatusOK {
		t.Fatalf("reflect: %v", st)
	}
	methods, err := binder.UnmarshalMethods(out)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(methods))
	for i, m := range methods {
		got[i] = formatMethod(m)
	}
	return got
}

// TestReflectionListsAllMethods pins every HAL's reflected method list —
// the transaction codes that probing and every DSL call name depend on —
// and requires a respawned instance to reflect the identical list.
func TestReflectionListsAllMethods(t *testing.T) {
	for _, svc := range halServices {
		t.Run(svc.label, func(t *testing.T) {
			r := newHALRig(t, nil, svc.build, svc.label)
			if d := r.proc.Descriptor(); d != svc.desc {
				t.Fatalf("descriptor = %q, want %q", d, svc.desc)
			}
			if l := r.proc.inner.(interface{ Label() string }).Label(); l != svc.label {
				t.Fatalf("label = %q, want %q", l, svc.label)
			}
			if got := reflectMethods(t, r.proc); !slices.Equal(got, svc.methods) {
				t.Fatalf("methods:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(svc.methods, "\n"))
			}

			pristine := r.proc.Checkpoint()
			before := r.proc.inner
			r.mustCall("getInterfaceVersion", nil)
			r.proc.Restore(pristine)
			if r.proc.inner == before {
				t.Fatal("Restore did not respawn the service")
			}
			if got := reflectMethods(t, r.proc); !slices.Equal(got, svc.methods) {
				t.Fatalf("respawned methods:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(svc.methods, "\n"))
			}
		})
	}
}

// TestRespawnAllocatesOnlyServiceState bounds one HAL respawn to the
// service's own state: the struct and its maps. The transaction table is
// shared by every instance and never rebuilt.
func TestRespawnAllocatesOnlyServiceState(t *testing.T) {
	for _, svc := range halServices {
		t.Run(svc.label, func(t *testing.T) {
			r := newHALRig(t, nil, svc.build, svc.label)
			pristine := r.proc.Checkpoint()
			if n := testing.AllocsPerRun(100, func() { r.proc.Restore(pristine) }); n > svc.allocs {
				t.Fatalf("respawn allocates %.0f times, want <= %.0f", n, svc.allocs)
			}
		})
	}
}
