package bench

import (
	"fmt"
	"strings"
	"testing"

	"droidfuzz/internal/adb"
	"droidfuzz/internal/bugs"
	"droidfuzz/internal/device"
	"droidfuzz/internal/probe"
)

// reproCase is one hand-written reproducer for an injected Table II bug,
// executed against the device model that carries it.
type reproCase struct {
	id      bugs.ID
	modelID string
	prog    string
}

// The reproducers document the exact trigger chains; they double as the
// ground truth that every injected bug is reachable through the same
// executor surface the fuzzer uses.
var reproCases = []reproCase{
	{bugs.TCPCProbe, "A1", `r0 = hal$usb.enableContract(millivolts=0x2328)
hal$usb.startToggling()
hal$usb.reprobeChip()
`},
	{bugs.GraphicsHALCrash, "A1", `r0 = hal$graphics.composer.createLayer(width=0x40, height=0x40, format=0x1)
hal$graphics.composer.destroyLayer(layer=r0)
hal$graphics.composer.presentDisplay()
`},
	{bugs.LockdepSubclass, "A1", `r0 = hal$graphics.composer.createLayer(width=0x40, height=0x40, format=0x1)
r1 = hal$graphics.composer.createLayer(width=0x40, height=0x40, format=0x1)
r2 = hal$graphics.composer.createLayer(width=0x40, height=0x40, format=0x1)
r3 = hal$graphics.composer.createLayer(width=0x40, height=0x40, format=0x1)
r4 = hal$graphics.composer.createLayer(width=0x40, height=0x40, format=0x1)
r5 = hal$graphics.composer.createLayer(width=0x40, height=0x40, format=0x1)
r6 = hal$graphics.composer.createLayer(width=0x40, height=0x40, format=0x1)
r7 = hal$graphics.composer.createLayer(width=0x40, height=0x40, format=0x1)
hal$graphics.composer.presentDisplay()
`},
	{bugs.TCPCVbus, "A1", `hal$usb.setPortRole(role=0x1)
hal$usb.setAlertMask(mask=0x8)
hal$usb.enableContract(millivolts=0x1388)
`},
	{bugs.AudioHang, "A2", `r0 = hal$media.codec.createCodec(mime="audio/raw", lowLatency=0x1, periodHint=0x100)
hal$media.codec.queueBuffer(codec=r0, data=b"00112233")
hal$media.codec.drain(codec=r0)
`},
	{bugs.MediaHALCrash, "A2", `r0 = hal$media.codec.createCodec(mime="audio/aac", lowLatency=0x0, periodHint=0x400)
hal$media.codec.flush(codec=r0)
hal$media.codec.queueBuffer(codec=r0, data=b"` + strings.Repeat("ab", 600) + `")
`},
	{bugs.HCICodecs, "A2", `hal$bluetooth.enable()
hal$bluetooth.startDiscovery(mode=0x2)
hal$bluetooth.disable()
hal$bluetooth.getSupportedCodecs()
`},
	{bugs.L2capDisconn, "B", `r0 = open$l2cap(path="/dev/l2cap0")
ioctl$L2CAP_DISCONNECT(fd=r0, req=0xa302)
`},
	{bugs.CameraHALCrash, "C1", `r0 = hal$camera.provider.openStream(width=0x500, height=0x2d0, format=0x3231564e)
hal$camera.provider.startCapture(stream=r0)
hal$camera.provider.setParameter(stream=r0, id=0xd, value=0x5b)
hal$camera.provider.captureFrame(stream=r0)
`},
	{bugs.RateInit, "C2", `r0 = open$wlan(path="/dev/wlan0")
ioctl$WLAN_SCAN(fd=r0, req=0xa701)
ioctl$WLAN_ASSOC(fd=r0, req=0xa702, bssid=0x42)
ioctl$WLAN_DISASSOC(fd=r0, req=0xa703)
ioctl$WLAN_SET_RATE(fd=r0, req=0xa704, mask=0x0)
ioctl$WLAN_ASSOC(fd=r0, req=0xa702, bssid=0x42)
`},
	{bugs.BTAcceptUnlink, "D", `hal$bluetooth.enable()
r1 = hal$bluetooth.connect(peer=0x42)
hal$bluetooth.disconnect(conn=r1)
hal$bluetooth.acceptConnection()
`},
	{bugs.V4LQuerycap, "E", `r0 = open$video(path="/dev/video0")
ioctl$VIDIOC_S_FMT(fd=r0, req=0xa402, width=0x280, height=0x1e0, pixfmt=0x3231564e)
ioctl$VIDIOC_REQBUFS(fd=r0, req=0xa403, count=0x4)
ioctl$VIDIOC_STREAMON(fd=r0, req=0xa406)
ioctl$VIDIOC_QUERYCAP(fd=r0, req=0xa401, reserved=0x1)
`},
}

func probedBroker(t *testing.T, modelID string) *adb.Broker {
	t.Helper()
	m, err := device.ModelByID(modelID)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(m)
	target, _, err := probe.Target(dev, probe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return adb.NewBroker(dev, target)
}

// TestInjectedBugReproducers executes a hand-written reproducer for all 12
// Table II bugs and checks the expected crash title appears.
func TestInjectedBugReproducers(t *testing.T) {
	for _, c := range reproCases {
		t.Run(fmt.Sprintf("bug%02d_%s", int(c.id), c.modelID), func(t *testing.T) {
			b := probedBroker(t, c.modelID)
			res, err := b.Exec(adb.ExecRequest{ProgText: c.prog})
			if err != nil {
				t.Fatalf("exec: %v", err)
			}
			for _, cr := range res.Crashes {
				if id, ok := bugs.TitleToID(cr.Title); ok && id == c.id {
					return
				}
			}
			t.Fatalf("bug %v not triggered; crashes: %+v", c.id, res.Crashes)
		})
	}
}

// TestReproducersNeedTheirBugFlag re-runs every reproducer on a device
// model that does NOT carry the bug (or carries it disabled) and checks no
// injected bug fires — the triggers are genuinely gated per firmware.
func TestReproducersNeedTheirBugFlag(t *testing.T) {
	// Device E carries only V4LQuerycap; run all other reproducers whose
	// interfaces exist there against it.
	other := map[bugs.ID]string{
		bugs.TCPCProbe:    "C1", // C1 has tcpc+usb HAL but not this bug
		bugs.TCPCVbus:     "C1",
		bugs.AudioHang:    "C2", // C2 has media HAL but not the hang
		bugs.HCICodecs:    "B",
		bugs.L2capDisconn: "D",
		bugs.RateInit:     "B",
		bugs.V4LQuerycap:  "B",
	}
	for _, c := range reproCases {
		modelID, ok := other[c.id]
		if !ok {
			continue
		}
		t.Run(fmt.Sprintf("bug%02d_on_%s", int(c.id), modelID), func(t *testing.T) {
			b := probedBroker(t, modelID)
			res, err := b.Exec(adb.ExecRequest{ProgText: c.prog})
			if err != nil {
				t.Fatalf("exec: %v", err)
			}
			for _, cr := range res.Crashes {
				if id, ok := bugs.TitleToID(cr.Title); ok && id == c.id {
					t.Fatalf("bug %v fired on clean firmware %s", c.id, modelID)
				}
			}
		})
	}
}
