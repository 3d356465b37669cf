package obs

// Layer names a layer of the simulated stack that CPU time or a data touch
// is attributed to: a frame a kern.Ctx enters, or a device or the wire
// recording a touch. The set is fixed, so it is one enum with one name
// table. The profiler names a frame after it, and the data-touch ledger
// binds every layer up front in enum order (NewLayerNames), so a layer's
// Name in the ledger is its value. LayerNone, "", is no layer.
type Layer uint8

// The layers: the devices and the wire, then the frames a kern.Ctx enters
// (cabdrv and loop are both).
const (
	LayerNone Layer = iota
	LayerEthdev
	LayerSDMA
	LayerCabdrv
	LayerMDMA
	LayerWire
	LayerShim
	LayerLoop
	LayerSocket
	LayerTCPOutput
	LayerTCPInput
	LayerTCPTimer
	LayerUDPOutput
	LayerUDPInput
	LayerIPOutput
	LayerIPInput
	LayerCabdrvRx
	LayerCabdrvTxDone
	LayerCabdrvReset
	LayerEthdrv
	LayerEthdrvRx
	NumLayers
)

var layerNames = [NumLayers]string{
	"", "ethdev", "sdma", "cabdrv", "mdma", "wire", "shim", "loop",
	"socket", "tcp_output", "tcp_input", "tcp_timer", "udp_output", "udp_input",
	"ip_output", "ip_input", "cabdrv_rx", "cabdrv_txdone", "cabdrv_reset",
	"ethdrv", "ethdrv_rx",
}

func (l Layer) String() string { return layerNames[l] }

// NewLayerNames returns a name table binding each layer l to Name(l).
func NewLayerNames() *Names { return NewNames(layerNames[1:]...) }
