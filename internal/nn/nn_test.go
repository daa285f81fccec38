package nn

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAllZooNetworksValidate(t *testing.T) {
	for _, n := range Zoo() {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

// within checks v is inside [lo, hi]; published reference counts have some
// slack because we omit biases and batch-norm parameters.
func within(t *testing.T, name string, v, lo, hi int64) {
	t.Helper()
	if v < lo || v > hi {
		t.Errorf("%s = %d, want within [%d, %d]", name, v, lo, hi)
	}
}

// TestReferenceCounts pins MAC and parameter counts against the published
// figures for each architecture (±10%), catching topology mistakes.
func TestReferenceCounts(t *testing.T) {
	cases := []struct {
		net          *Network
		macs, params int64 // published reference values
	}{
		{VGG16(), 15_470_000_000, 138_000_000},
		{VGG19(), 19_630_000_000, 143_000_000},
		{ResNet18(), 1_820_000_000, 11_600_000},
		{ResNet50(), 4_100_000_000, 25_000_000},
		{MobileNetV2(), 300_000_000, 3_400_000},
		{MNasNet(), 315_000_000, 4_300_000},
	}
	for _, c := range cases {
		m := c.net.TotalMACs()
		p := c.net.TotalWeights()
		within(t, c.net.Name+" MACs", m, c.macs*85/100, c.macs*115/100)
		within(t, c.net.Name+" params", p, c.params*80/100, c.params*105/100)
	}
}

func TestVGG16Shapes(t *testing.T) {
	n := VGG16()
	convs := n.ConvLayers()
	if len(convs) != 13 {
		t.Fatalf("VGG16 conv layers = %d, want 13", len(convs))
	}
	if convs[0].OutH != 224 || convs[0].OutC != 64 {
		t.Fatalf("VGG16 conv1 output = %dx%d ch %d", convs[0].OutH, convs[0].OutW, convs[0].OutC)
	}
	last := convs[len(convs)-1]
	if last.OutH != 14 || last.OutC != 512 {
		t.Fatalf("VGG16 conv13 output = %dx%d ch %d, want 14x14 ch 512", last.OutH, last.OutW, last.OutC)
	}
	// Classifier takes 7*7*512 after the final pool.
	var fcs []Layer
	for _, l := range n.Layers {
		if l.Kind == FC {
			fcs = append(fcs, l)
		}
	}
	if len(fcs) != 3 || fcs[0].InC != 7*7*512 || fcs[2].OutC != 1000 {
		t.Fatalf("VGG16 classifier malformed: %v", fcs)
	}
}

func TestResNet18Shapes(t *testing.T) {
	n := ResNet18()
	// Stem downsamples 224 -> 56.
	convs := n.ConvLayers()
	if convs[0].KH != 7 || convs[0].Stride != 2 {
		t.Fatal("ResNet18 stem is not 7x7/2")
	}
	last := convs[len(convs)-1]
	if last.OutC != 512 || last.OutH != 7 {
		t.Fatalf("ResNet18 final conv = ch %d %dx%d, want 512 7x7", last.OutC, last.OutH, last.OutW)
	}
	// 20 convolutions: stem + 16 block convs + 3 downsample projections.
	if len(convs) != 20 {
		t.Fatalf("ResNet18 conv count = %d, want 20", len(convs))
	}
}

func TestResNet50Shapes(t *testing.T) {
	n := ResNet50()
	convs := n.ConvLayers()
	// stem + 16 blocks * 3 convs + 4 projections = 53.
	if len(convs) != 53 {
		t.Fatalf("ResNet50 conv count = %d, want 53", len(convs))
	}
	last := convs[len(convs)-1]
	if last.OutC != 2048 {
		t.Fatalf("ResNet50 final channels = %d, want 2048", last.OutC)
	}
}

func TestLightModelsAreLight(t *testing.T) {
	for _, n := range LightModels() {
		if !n.IsLightModel() {
			t.Errorf("%s should report IsLightModel", n.Name)
		}
	}
	for _, n := range HeavyModels() {
		if n.IsLightModel() {
			t.Errorf("%s should not report IsLightModel", n.Name)
		}
	}
}

func TestMobileNetV2Shapes(t *testing.T) {
	n := MobileNetV2()
	convs := n.ConvLayers()
	last := convs[len(convs)-1]
	if last.OutC != 1280 || last.OutH != 7 {
		t.Fatalf("MobileNetV2 head = ch %d %dx%d, want 1280 7x7", last.OutC, last.OutH, last.OutW)
	}
	dw := 0
	for _, l := range convs {
		if l.Kind == Depthwise {
			dw++
		}
	}
	if dw != 17 {
		t.Fatalf("MobileNetV2 depthwise count = %d, want 17", dw)
	}
}

func TestMNasNetShapes(t *testing.T) {
	n := MNasNet()
	convs := n.ConvLayers()
	last := convs[len(convs)-1]
	if last.OutC != 1280 || last.OutH != 7 {
		t.Fatalf("MNasNet head = ch %d %dx%d, want 1280 7x7", last.OutC, last.OutH, last.OutW)
	}
	// Some blocks must use 5x5 depthwise kernels.
	has5 := false
	for _, l := range convs {
		if l.Kind == Depthwise && l.KH == 5 {
			has5 = true
		}
	}
	if !has5 {
		t.Fatal("MNasNet should contain 5x5 depthwise layers")
	}
}

func TestAlexNetShapes(t *testing.T) {
	n := AlexNet()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Published reference: ~61M params (FC-dominated), ~714M MACs.
	within(t, "AlexNet params", n.TotalWeights(), 55_000_000, 65_000_000)
	within(t, "AlexNet MACs", n.TotalMACs(), 600_000_000, 800_000_000)
	convs := n.ConvLayers()
	if len(convs) != 5 || convs[0].KH != 11 || convs[0].Stride != 4 {
		t.Fatalf("AlexNet stem malformed: %v", convs[0])
	}
}

func TestLeNet5Weights(t *testing.T) {
	n := LeNet5()
	// The paper cites ~240 KB of weights for LeNet5 in a 32-bit system
	// (~60K parameters). Ours omits biases: ~61K.
	w := n.TotalWeights()
	within(t, "LeNet5 params", w, 55_000, 65_000)
}

func TestAccumulationDepth(t *testing.T) {
	l := Layer{Kind: Conv, InC: 128, KH: 3, KW: 3}
	if d := l.AccumulationDepth(); d != 1152 {
		t.Fatalf("conv depth = %d, want 1152", d)
	}
	dw := Layer{Kind: Depthwise, InC: 128, KH: 3, KW: 3}
	if d := dw.AccumulationDepth(); d != 9 {
		t.Fatalf("depthwise depth = %d, want 9", d)
	}
	fc := Layer{Kind: FC, InC: 4096}
	if d := fc.AccumulationDepth(); d != 4096 {
		t.Fatalf("fc depth = %d, want 4096", d)
	}
}

func TestByName(t *testing.T) {
	n, err := ByName("VGG16")
	if err != nil || n.Name != "VGG16" {
		t.Fatalf("ByName(VGG16) = %v, %v", n, err)
	}
	if _, err := ByName("NoSuchNet"); err == nil {
		t.Fatal("ByName should fail for unknown network")
	}
}

func TestValidateCatchesBrokenNetwork(t *testing.T) {
	n := VGG16()
	n.Layers[3].InC = 999
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted inconsistent network")
	}
}

func TestKindString(t *testing.T) {
	if Conv.String() != "conv" || Depthwise.String() != "dwconv" || FC.String() != "fc" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

// PROPERTY: for every compute layer of every zoo network, MACs equal
// output elements × accumulation depth.
func TestPropertyMACsDecomposition(t *testing.T) {
	for _, n := range PaperModels() {
		for _, l := range n.Layers {
			if !l.IsCompute() {
				continue
			}
			want := l.OutputElems() * l.AccumulationDepth()
			if l.MACs() != want {
				t.Fatalf("%s %s: MACs %d != out %d × depth %d",
					n.Name, l.Name, l.MACs(), l.OutputElems(), l.AccumulationDepth())
			}
		}
	}
}

// PROPERTY: builder-produced layers always have positive output sizes.
func TestPropertyPositiveShapes(t *testing.T) {
	f := func(choice uint8) bool {
		nets := PaperModels()
		n := nets[int(choice)%len(nets)]
		for _, l := range n.Layers {
			if l.OutC <= 0 || l.OutH <= 0 || l.OutW <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummary(t *testing.T) {
	s := LeNet5().Summary()
	for _, want := range []string{"LeNet5", "conv1", "fc", "total:", "MACs"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}
