#!/usr/bin/env python3
"""Regenerate the packaged fixture data files from the master tables below.

Outputs (under src/dimkit/data/):
    units.tsv             the fixture knowledge base (75 units, 21 kinds)
    unit_frequencies.tsv  raw (gt, hs, cf) popularity sidecar
    triplets.tsv          200-triplet synthetic store for bootstrapping
    corpus_sample.txt     sample sentence corpus
    mwp_sample.jsonl      sample math word problems

The frequency column of units.tsv is compute_frequency() over the
sidecar, so the two files stay consistent by construction.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dimkit.kb import compute_frequency  # noqa: E402

DATA = ROOT / "src" / "dimkit" / "data"

# Dimension strings (A, E, L, I, M, H, T order).
LENGTH = "A0E0L1I0M0H0T0D0"
MASS = "A0E0L0I0M1H0T0D0"
TIME = "A0E0L0I0M0H0T1D0"
CURRENT = "A0E1L0I0M0H0T0D0"
TEMPERATURE = "A0E0L0I0M0H1T0D0"
AMOUNT = "A1E0L0I0M0H0T0D0"
LUMINOUS = "A0E0L0I1M0H0T0D0"
FORCE = "A0E0L1I0M1H0T-2D0"
FORCE_PER_LENGTH = "A0E0L0I0M1H0T-2D0"
ENERGY = "A0E0L2I0M1H0T-2D0"
ENERGY_LENGTH = "A0E0L3I0M1H0T-2D0"
POWER = "A0E0L2I0M1H0T-3D0"
AREA = "A0E0L2I0M0H0T0D0"
VOLUME = "A0E0L3I0M0H0T0D0"
VOLUME_FLOW = "A0E0L3I0M0H0T-1D0"
SPEED = "A0E0L1I0M0H0T-1D0"
FREQUENCY = "A0E0L0I0M0H0T-1D0"
PRESSURE = "A0E0L-1I0M1H0T-2D0"
MAGNETIC = "A0E-1L0I0M1H0T-2D0"
REFRACTIVE = "A0E0L-1I0M0H0T0D0"
RATIO = "A0E0L0I0M0H0T0D1"

KW = {
    "Length": ["length", "distance", "height", "width", "长度", "距离"],
    "Mass": ["mass", "weight", "heavy", "质量", "重量"],
    "Time": ["time", "duration", "interval", "时间"],
    "ElectricCurrent": ["current", "electric", "circuit", "电流"],
    "AmountOfSubstance": ["substance", "chemistry", "amount", "化学", "物质"],
    "LuminousIntensity": ["luminous", "intensity", "light", "光", "亮度"],
    "Force": ["force", "push", "pull", "力"],
    "ForcePerLength": ["force", "surface", "tension", "physics", "表面", "张力"],
    "Energy": ["energy", "work", "heat", "能量"],
    "EnergyLength": ["energy", "length", "spectroscopy", "radiation", "能量"],
    "Power": ["power", "rate", "engine", "功率"],
    "Area": ["area", "surface", "land", "面积"],
    "Volume": ["volume", "capacity", "liquid", "体积", "容积"],
    "VolumeFlowRate": ["flow", "rate", "volume", "pump", "流量"],
    "Speed": ["speed", "velocity", "travel", "速度"],
    "Frequency": ["frequency", "cycle", "signal", "频率"],
    "Pressure": ["pressure", "stress", "atmosphere", "压强", "压力"],
    "MagneticFluxDensity": ["magnetic", "flux", "field", "磁场"],
    "Ratio": ["ratio", "proportion", "fraction", "比例"],
}

# unit_id, label_zh, label_en, symbols, aliases, description, keywords,
# popularity (drives the raw sidecar), kind, dimension, conversion_val,
# affine_offset
UNITS = [
    # Length
    ("M", "米", "meter", ["m"], ["meters", "metre", "metres"],
     "SI base unit of length", KW["Length"], 100.0, "Length", LENGTH, "1", 0.0),
    ("CentiM", "厘米", "centimeter", ["cm"], ["centimeters", "centimetre", "公分"],
     "one hundredth of a meter", KW["Length"], 88.0, "Length", LENGTH, "0.01", 0.0),
    ("KiloM", "千米", "kilometer", ["km"], ["kilometers", "kilometre", "公里"],
     "one thousand meters", KW["Length"], 90.0, "Length", LENGTH, "1000", 0.0),
    ("MilliM", "毫米", "millimeter", ["mm"], ["millimeters", "millimetre"],
     "one thousandth of a meter", KW["Length"], 70.0, "Length", LENGTH, "0.001", 0.0),
    ("DeciM", "分米", "decimeter", ["dm"], ["decimeters", "decimetre"],
     "one tenth of a meter", KW["Length"], 8.5, "Length", LENGTH, "0.1", 0.0),
    ("IN", "英寸", "inch", ["in"], ["inches"],
     "imperial length unit, 2.54 cm", KW["Length"], 32.0, "Length", LENGTH, "0.0254", 0.0),
    ("FT", "英尺", "foot", ["ft"], ["feet"],
     "imperial length unit, 12 inches", KW["Length"], 33.0, "Length", LENGTH, "0.3048", 0.0),
    ("MI", "英里", "mile", ["mi"], ["miles"],
     "imperial length unit, 5280 feet", KW["Length"], 34.0, "Length", LENGTH, "1609.344", 0.0),
    # Mass
    ("KiloGM", "千克", "kilogram", ["kg"], ["kilograms", "kilogramme", "公斤"],
     "SI base unit of mass", KW["Mass"], 96.0, "Mass", MASS, "1", 0.0),
    ("GM", "克", "gram", ["g"], ["grams", "gramme"],
     "one thousandth of a kilogram", KW["Mass"], 85.0, "Mass", MASS, "0.001", 0.0),
    ("TON_Metric", "吨", "ton", ["t"], ["tons", "tonne", "metric ton", "公吨"],
     "one thousand kilograms", KW["Mass"], 66.0, "Mass", MASS, "1000", 0.0),
    ("MilliGM", "毫克", "milligram", ["mg"], ["milligrams"],
     "one millionth of a kilogram", KW["Mass"], 4.5, "Mass", MASS, "0.000001", 0.0),
    ("LB", "磅", "pound", ["lb"], ["pounds", "lbs"],
     "imperial mass unit", KW["Mass"], 30.0, "Mass", MASS, "0.45359237", 0.0),
    ("OZ", "盎司", "ounce", ["oz"], ["ounces"],
     "one sixteenth of a pound", KW["Mass"], 28.0, "Mass", MASS, "0.028349523125", 0.0),
    # Time
    ("SEC", "秒", "second", ["s"], ["seconds", "sec"],
     "SI base unit of time", KW["Time"], 94.0, "Time", TIME, "1", 0.0),
    ("MIN", "分钟", "minute", ["min"], ["minutes"],
     "sixty seconds", KW["Time"], 82.0, "Time", TIME, "60", 0.0),
    ("HR", "小时", "hour", ["h"], ["hours", "hr", "hrs"],
     "sixty minutes", KW["Time"], 84.0, "Time", TIME, "3600", 0.0),
    ("DAY", "天", "day", ["d"], ["days", "日"],
     "twenty-four hours", KW["Time"], 80.0, "Time", TIME, "86400", 0.0),
    ("MilliSEC", "毫秒", "millisecond", ["ms"], ["milliseconds"],
     "one thousandth of a second", KW["Time"], 10.0, "Time", TIME, "0.001", 0.0),
    ("WK", "周", "week", [], ["weeks", "星期"],
     "seven days", KW["Time"], 15.0, "Time", TIME, "604800", 0.0),
    # Electric current
    ("A", "安培", "ampere", ["A"], ["amperes", "amp", "amps"],
     "SI base unit of electric current", KW["ElectricCurrent"], 54.0, "ElectricCurrent", CURRENT, "1", 0.0),
    ("MilliA", "毫安", "milliampere", ["mA"], ["milliamperes", "milliamp"],
     "one thousandth of an ampere", KW["ElectricCurrent"], 14.0, "ElectricCurrent", CURRENT, "0.001", 0.0),
    ("KiloA", "千安", "kiloampere", ["kA"], ["kiloamperes"],
     "one thousand amperes", KW["ElectricCurrent"], 4.0, "ElectricCurrent", CURRENT, "1000", 0.0),
    # Temperature
    ("K", "开尔文", "kelvin", ["K"], ["kelvins"],
     "SI base unit of thermodynamic temperature",
     ["temperature", "thermodynamic", "absolute", "温度"], 40.0, "Temperature", TEMPERATURE, "1", 0.0),
    ("DEG_C", "摄氏度", "degree Celsius", ["°C"], ["degrees Celsius", "degree", "celsius", "度"],
     "Celsius scale temperature unit, offset from kelvin",
     ["temperature", "water", "weather", "boil", "hot", "cold", "温度", "水", "天气"],
     74.0, "Temperature", TEMPERATURE, "1", 273.15),
    # Amount of substance
    ("MOL", "摩尔", "mole", ["mol"], ["moles"],
     "SI base unit of amount of substance", KW["AmountOfSubstance"], 18.0, "AmountOfSubstance", AMOUNT, "1", 0.0),
    ("MilliMOL", "毫摩尔", "millimole", ["mmol"], ["millimoles"],
     "one thousandth of a mole", KW["AmountOfSubstance"], 3.5, "AmountOfSubstance", AMOUNT, "0.001", 0.0),
    # Luminous intensity
    ("CD", "坎德拉", "candela", ["cd"], ["candelas"],
     "SI base unit of luminous intensity", KW["LuminousIntensity"], 13.0, "LuminousIntensity", LUMINOUS, "1", 0.0),
    # Force
    ("N", "牛顿", "newton", ["N"], ["newtons"],
     "SI unit of force", KW["Force"], 42.0, "Force", FORCE, "1", 0.0),
    ("KiloN", "千牛", "kilonewton", ["kN"], ["kilonewtons"],
     "one thousand newtons", KW["Force"], 9.5, "Force", FORCE, "1000", 0.0),
    ("DYN", "达因", "dyne", ["dyn"], ["dynes"],
     "CGS unit of force", KW["Force"], 2.5, "Force", FORCE, "0.00001", 0.0),
    ("POUNDAL", "磅达", "poundal", ["pdl"], ["poundals"],
     "foot-pound-second unit of force", KW["Force"], 1.4, "Force", FORCE, "0.138254954376", 0.0),
    # Force per length
    ("N-PER-M", "牛顿每米", "newton per meter", ["N/m"], ["newtons per meter"],
     "SI unit of surface tension", KW["ForcePerLength"], 2.7, "ForcePerLength", FORCE_PER_LENGTH, "1", 0.0),
    ("DYN-PER-CentiM", "达因每厘米", "dyne per centimeter", ["dyn/cm"], ["dyne/cm", "dynes per centimeter"],
     "CGS unit of surface tension", KW["ForcePerLength"], 3.2, "ForcePerLength", FORCE_PER_LENGTH, "0.001", 0.0),
    ("N-PER-CentiM", "牛顿每厘米", "newton per centimeter", ["N/cm"], [],
     "newton per centimeter of length", KW["ForcePerLength"], 1.5, "ForcePerLength", FORCE_PER_LENGTH, "100", 0.0),
    # Energy
    ("J", "焦耳", "joule", ["J"], ["joules"],
     "SI unit of energy", KW["Energy"], 48.0, "Energy", ENERGY, "1", 0.0),
    ("KiloJ", "千焦", "kilojoule", ["kJ"], ["kilojoules"],
     "one thousand joules", KW["Energy"], 36.0, "Energy", ENERGY, "1000", 0.0),
    ("CAL", "卡路里", "calorie", ["cal"], ["calories", "大卡"],
     "thermochemical calorie", KW["Energy"], 20.0, "Energy", ENERGY, "4.184", 0.0),
    ("KiloW-HR", "千瓦时", "kilowatt hour", ["kWh"], ["kilowatt hours", "kilowatt-hour"],
     "energy of one kilowatt sustained for an hour", KW["Energy"], 19.0, "Energy", ENERGY, "3600000", 0.0),
    ("EV", "电子伏特", "electronvolt", ["eV"], ["electronvolts", "electron volt"],
     "energy gained by an electron across one volt", KW["Energy"], 1.8, "Energy", ENERGY, "1.602176634e-19", 0.0),
    # Energy x length
    ("J-M", "焦耳米", "joule meter", ["J·m"], ["joule metre"],
     "energy-length product used in radiometry", KW["EnergyLength"], 1.1, "EnergyLength", ENERGY_LENGTH, "1", 0.0),
    ("ERG-CentiM", "尔格厘米", "erg centimeter", ["erg·cm"], [],
     "CGS energy-length product", KW["EnergyLength"], 1.0, "EnergyLength", ENERGY_LENGTH, "1e-09", 0.0),
    # Power
    ("W", "瓦特", "watt", ["W"], ["watts", "瓦"],
     "SI unit of power", KW["Power"], 58.0, "Power", POWER, "1", 0.0),
    ("KiloW", "千瓦", "kilowatt", ["kW"], ["kilowatts"],
     "one thousand watts", KW["Power"], 56.0, "Power", POWER, "1000", 0.0),
    ("MilliW", "毫瓦", "milliwatt", ["mW"], ["milliwatts"],
     "one thousandth of a watt", KW["Power"], 9.0, "Power", POWER, "0.001", 0.0),
    ("HP", "马力", "horsepower", ["hp"], [],
     "mechanical horsepower", KW["Power"], 5.0, "Power", POWER, "745.6998715822702", 0.0),
    # Area
    ("M2", "平方米", "square meter", ["m²"], ["square meters", "square metre"],
     "SI unit of area", KW["Area"], 60.0, "Area", AREA, "1", 0.0),
    ("CentiM2", "平方厘米", "square centimeter", ["cm²"], ["square centimeters"],
     "one ten-thousandth of a square meter", KW["Area"], 8.0, "Area", AREA, "0.0001", 0.0),
    ("HA", "公顷", "hectare", ["ha"], ["hectares"],
     "ten thousand square meters", KW["Area"], 16.0, "Area", AREA, "10000", 0.0),
    ("KiloM2", "平方千米", "square kilometer", ["km²"], ["square kilometers", "平方公里"],
     "one million square meters", KW["Area"], 7.5, "Area", AREA, "1000000", 0.0),
    # Volume
    ("M3", "立方米", "cubic meter", ["m³"], ["cubic meters", "cubic metre"],
     "SI unit of volume", KW["Volume"], 46.0, "Volume", VOLUME, "1", 0.0),
    ("L", "升", "liter", ["L"], ["liters", "litre", "litres"],
     "one thousandth of a cubic meter", KW["Volume"], 78.0, "Volume", VOLUME, "0.001", 0.0),
    ("MilliL", "毫升", "milliliter", ["mL", "ml"], ["milliliters", "millilitre"],
     "one millionth of a cubic meter", KW["Volume"], 64.0, "Volume", VOLUME, "0.000001", 0.0),
    ("GILL_US", "及耳", "gill", [], ["gills"],
     "US liquid gill, quarter of a US pint", KW["Volume"], 1.6, "Volume", VOLUME, "0.00011829411825", 0.0),
    # Volume flow rate
    ("M3-PER-SEC", "立方米每秒", "cubic meter per second", ["m³/s"], [],
     "SI unit of volume flow", KW["VolumeFlowRate"], 7.0, "VolumeFlowRate", VOLUME_FLOW, "1", 0.0),
    ("L-PER-SEC", "升每秒", "liter per second", ["L/s"], ["liters per second"],
     "one liter each second", KW["VolumeFlowRate"], 6.5, "VolumeFlowRate", VOLUME_FLOW, "0.001", 0.0),
    ("L-PER-MIN", "升每分钟", "liter per minute", ["L/min"], ["liters per minute"],
     "one liter each minute", KW["VolumeFlowRate"], 6.0, "VolumeFlowRate", VOLUME_FLOW,
     repr(0.001 / 60.0), 0.0),
    ("GILL_US-PER-HR", "及耳每小时", "gill per hour", [], ["gill/h", "gills per hour"],
     "one US gill each hour", KW["VolumeFlowRate"], 1.2, "VolumeFlowRate", VOLUME_FLOW,
     repr(0.00011829411825 / 3600.0), 0.0),
    # Speed
    ("M-PER-SEC", "米每秒", "meter per second", ["m/s"], ["meters per second"],
     "SI unit of speed", KW["Speed"], 52.0, "Speed", SPEED, "1", 0.0),
    ("KiloM-PER-HR", "千米每小时", "kilometer per hour", ["km/h"], ["kilometers per hour", "公里每小时", "kph"],
     "one kilometer each hour", KW["Speed"], 50.0, "Speed", SPEED, repr(1000.0 / 3600.0), 0.0),
    ("MI-PER-HR", "英里每小时", "mile per hour", ["mph"], ["miles per hour"],
     "one mile each hour", KW["Speed"], 5.5, "Speed", SPEED, "0.44704", 0.0),
    # Frequency
    ("HZ", "赫兹", "hertz", ["Hz"], [],
     "SI unit of frequency", KW["Frequency"], 44.0, "Frequency", FREQUENCY, "1", 0.0),
    ("KiloHZ", "千赫兹", "kilohertz", ["kHz"], [],
     "one thousand hertz", KW["Frequency"], 25.0, "Frequency", FREQUENCY, "1000", 0.0),
    ("MegaHZ", "兆赫兹", "megahertz", ["MHz"], [],
     "one million hertz", KW["Frequency"], 24.0, "Frequency", FREQUENCY, "1000000", 0.0),
    # Pressure
    ("PA", "帕斯卡", "pascal", ["Pa"], ["pascals"],
     "SI unit of pressure", KW["Pressure"], 38.0, "Pressure", PRESSURE, "1", 0.0),
    ("KiloPA", "千帕", "kilopascal", ["kPa"], ["kilopascals"],
     "one thousand pascals", KW["Pressure"], 17.0, "Pressure", PRESSURE, "1000", 0.0),
    ("BAR", "巴", "bar", [], ["bars"],
     "one hundred kilopascals", KW["Pressure"], 22.0, "Pressure", PRESSURE, "100000", 0.0),
    ("ATM", "标准大气压", "atmosphere", ["atm"], ["atmospheres"],
     "standard atmosphere", KW["Pressure"], 21.0, "Pressure", PRESSURE, "101325", 0.0),
    # Magnetic flux density
    ("TESLA", "特斯拉", "tesla", ["T"], ["teslas"],
     "SI unit of magnetic flux density", KW["MagneticFluxDensity"], 12.0, "MagneticFluxDensity", MAGNETIC, "1", 0.0),
    ("MilliT", "毫特斯拉", "millitesla", ["mT"], ["milliteslas"],
     "one thousandth of a tesla", KW["MagneticFluxDensity"], 3.0, "MagneticFluxDensity", MAGNETIC, "0.001", 0.0),
    ("GAUSS", "高斯", "gauss", ["Gs"], [],
     "CGS unit of magnetic flux density", KW["MagneticFluxDensity"], 2.8, "MagneticFluxDensity", MAGNETIC, "0.0001", 0.0),
    # Refractive power
    ("DIOPTER", "屈光度", "diopter", ["dpt"], ["dioptre", "diopters", "degree", "度"],
     "optical power of a lens, reciprocal meters",
     ["lens", "eyeglass", "optics", "prescription", "vision", "focal", "眼镜", "镜片", "视力"],
     11.0, "RefractivePower", REFRACTIVE, "1", 0.0),
    # Dimensionless ratios
    ("ONE", "纯数", "one", [], ["unity"],
     "dimensionless unity", KW["Ratio"], 2.2, "Ratio", RATIO, "1", 0.0),
    ("PERCENT", "百分比", "percent", ["%"], [],
     "one part in one hundred", KW["Ratio"], 26.0, "Ratio", RATIO, "0.01", 0.0),
    ("PPM", "百万分率", "parts per million", ["ppm"], [],
     "one part in one million", KW["Ratio"], 2.0, "Ratio", RATIO, "0.000001", 0.0),
]


def build_kb() -> None:
    raw = {}
    for row in UNITS:
        unit_id, popularity = row[0], row[7]
        raw[unit_id] = (
            round(popularity, 3),
            round(popularity / 10.0 + 0.5, 3),
            int(popularity * popularity * 20) + 1,
        )
    freqs = compute_frequency(raw)

    sidecar_lines = []
    kb_lines = []
    for row in UNITS:
        (unit_id, label_zh, label_en, symbols, aliases, description,
         keywords, _pop, kind, dim, cv, offset) = row
        gt, hs, cf = raw[unit_id]
        sidecar_lines.append(f"{unit_id}\t{gt}\t{hs}\t{cf}")
        cols = [
            unit_id, label_zh, label_en,
            "|".join(symbols), "|".join(aliases),
            description, "|".join(keywords),
            repr(freqs[unit_id]), kind, dim, cv,
        ]
        if offset:
            cols.append(repr(offset))
        kb_lines.append("\t".join(cols))

    (DATA / "units.tsv").write_text("\n".join(kb_lines) + "\n", encoding="utf-8")
    (DATA / "unit_frequencies.tsv").write_text("\n".join(sidecar_lines) + "\n", encoding="utf-8")
    print(f"wrote {len(kb_lines)} units, min freq "
          f"{min(freqs.values()):.3f} max {max(freqs.values()):.3f}")


# subject pools for the synthetic store
PEOPLE = ["LeBron James", "Stephen Curry", "Yao Ming", "Ada Lovelace", "Marie Curie",
          "Alan Turing", "Li Na", "Su Bingtian", "Grace Hopper", "Isaac Newton"]
PLACES = ["Mount Tai", "West Lake", "Hyde Park", "Central Valley", "Blue Lagoon"]
DEVICES = ["the A9 drone", "the R2 robot", "the V6 engine", "the X1 sensor", "the Q3 pump"]


def build_triplets() -> None:
    rows: list[tuple[str, str, str]] = []

    def add(predicate, objects, subjects):
        for i, obj in enumerate(objects):
            rows.append((subjects[i % len(subjects)], predicate, obj))

    heights = ["2.06 meters", "188 cm", "1.98 meters", "175 cm", "2.26 meters",
               "169 cm", "1.83 meters", "180 cm", "1.91 meters", "165 cm",
               "172 cm", "1.78 meters", "181 cm", "1.62 meters", "190 cm",
               "1.73 meters", "168 cm", "177 cm", "1.85 meters", "186 cm",
               "1.70 meters", "174 cm", "179 cm", "1.95 meters", "183 cm",
               "1.88 meters", "167 cm",
               "above average", "quite tall", "unknown height"]  # 27/30 quantities
    add("height", heights, PEOPLE)

    weights = ["75 kg", "80 kilograms", "150千克", "62 kg", "95 kilograms",
               "58千克", "70 kg", "88 kilograms", "66 kg", "102 kilograms",
               "54 kg", "71 kilograms", "83 kg", "49千克", "77 kilograms",
               "91 kg", "64 kilograms", "59 kg", "86 kilograms", "73 kg",
               "68 kilograms", "79 kg", "97 kilograms", "56 kg", "85 kilograms",
               "2 t", "3 tons", "1.5 t",
               "fairly heavy", "not recorded"]  # 28/30 quantities
    add("weight", weights, PEOPLE)

    durations = ["90 minutes", "2 hours", "45 minutes", "30 minutes", "3 hours",
                 "75 minutes", "1.5 hours", "20 minutes", "6 hours", "12 minutes",
                 "40 minutes", "100 minutes", "8 hours", "55 minutes", "25 minutes",
                 "70 minutes", "4 hours", "35 minutes", "95 minutes", "110 minutes",
                 "50 minutes", "15 minutes", "5 hours", "65 minutes", "85 minutes"]  # 25/25
    add("duration", durations, DEVICES + PLACES)

    distances = ["42.195 kilometers", "5 km", "10 kilometers", "21.1 km", "400 meters",
                 "800 meters", "1500 meters", "3 km", "15 kilometers", "7.5 km",
                 "100 meters", "200 meters", "60 kilometers", "2.4 km", "12 kilometers",
                 "900 meters", "18 km", "26 kilometers", "31 km", "8 kilometers",
                 "5000 meters", "600 meters", "1.2 km", "950 meters",
                 "a long way"]  # 24/25 quantities
    add("distance", distances, PEOPLE + PLACES)

    temperatures = ["39.5 °C", "36.6 °C", "38 摄氏度", "100 °C", "25 摄氏度",
                    "12 °C", "37.2 °C", "41 °C", "19 摄氏度", "30 °C",
                    "28 摄氏度", "35.5 °C", "22 °C", "33 摄氏度",
                    "40.1 °C after 10 minutes"]  # 15/15; last one reachable from seeds
    add("temperature", temperatures, PLACES + DEVICES)

    speeds = ["120 km/h", "33 m/s", "80 km/h", "12 m/s", "95 km/h",
              "340 m/s", "60 km/h", "25 m/s", "110 km/h", "8 m/s",
              "72 km/h", "15 m/s", "130 km/h", "42 m/s", "101 km/h"]  # 15/15
    add("top_speed", speeds, DEVICES)

    doses = ["5 ml", "0.5 g", "200 mg", "10 ml", "2 l",
             "1.2 g", "350 mg", "15 ml", "0.8 g", "120 mg",
             "25 ml", "3.5 g", "450 mg", "8 ml",
             "as prescribed"]  # 14/15 quantities
    add("dose", doses, DEVICES + PEOPLE)

    capacities = ["500 ml", "250 ml", "330 ml", "750 ml", "1000 ml",
                  "120 ml", "640 ml",
                  "rather large", "varies by batch", "unknown"]  # 7/10 -> dropped at tau=0.8
    add("capacity", capacities, DEVICES)

    codes = ["Model T", "T-series", "Mark T", "Class T prototype", "T variant",
             "Type T chassis", "T edition", "revision T", "batch T", "T spec",
             "series T build", "T line", "trim T", "release T", "T package"]  # 0/15
    add("product_code", codes, DEVICES)

    spouses = ["Mary Shelley", "Pierre Curie", "Joan Clarke", "Jiang Shan", "Elena Ortiz",
               "Nora Webster", "Ivan Petrov", "Lucia Fernandez", "Omar Haddad", "Wei Chen"]  # 0/10
    add("spouse", spouses, PEOPLE)

    years = ["1998", "2004", "1987", "2012", "1969",
             "2020", "1955", "2001", "1942", "2016"]  # numerals, no units
    add("founded_year", years, PLACES + DEVICES)

    assert len(rows) == 200, len(rows)
    lines = [f"{s}\t{p}\t{o}" for s, p, o in rows]
    (DATA / "triplets.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} triplets")


CORPUS = [
    "LeBron James's height is 2.06 meters.",
    "Stephen Curry's height is 188 cm.",
    "这座桥全长1200米。",
    "小明体重45千克。",
    "The parcel weighs 2.5 kg.",
    "The film's duration was 90 minutes.",
    "水箱容量是3.5升。",
    "The lab recorded a force of 0.1 poundal.",
    "Surface tension dropped to 72 dyn/cm in the demo.",
    "The kettle heated the water to 95 °C.",
    "今天气温达到35摄氏度。",
    "The recipe needs 250 grams of flour.",
    "The marathon distance is 42.195 kilometers.",
    "The bottle holds 500 ml of juice.",
    "The train travels at 120 km/h on this line.",
    "声音的速度约为340米每秒。",
    "The workshop consumed 18 kWh last week.",
    "每包水泥重50公斤。",
    "The hike took 6 hours in total.",
    "实验用了30毫升酒精。",
]


def build_corpus() -> None:
    (DATA / "corpus_sample.txt").write_text("\n".join(CORPUS) + "\n", encoding="utf-8")
    print(f"wrote {len(CORPUS)} corpus sentences")


PROBLEMS = [
    {
        "id": "mwp-001",
        "body": "小王要将150千克含药量20%的农药稀释成含药量5%的药水。",
        "question": "需要加水多少千克？",
        "equation": "(150*20%)/5%-150",
        "answer": 450.0,
        "answer_unit": "KiloGM",
    },
    {
        "id": "mwp-002",
        "body": "A runner covered 5 kilometers in 25 minutes.",
        "question": "How many meters did the runner cover?",
        "equation": "5*1000",
        "answer": 5000.0,
        "answer_unit": "M",
    },
    {
        "id": "mwp-003",
        "body": "一个水箱装有3.5升水。",
        "question": "水箱里有多少毫升水？",
        "equation": "3.5*1000",
        "answer": 3500.0,
        "answer_unit": "MilliL",
    },
    {
        "id": "mwp-004",
        "body": "A rope is 240 centimeters long and is cut into 4 equal pieces.",
        "question": "How many centimeters long is each piece?",
        "equation": "240/4",
        "answer": 60.0,
        "answer_unit": "CentiM",
    },
    {
        "id": "mwp-005",
        "body": "小明每天步行1.2千米上学。",
        "question": "他5天共步行多少千米？",
        "equation": "1.2*5",
        "answer": 6.0,
        "answer_unit": "KiloM",
    },
    {
        "id": "mwp-006",
        "body": "A crate holds 18 kilograms of apples.",
        "question": "How many grams is that?",
        "equation": "18*1000",
        "answer": 18000.0,
        "answer_unit": "GM",
    },
    {
        "id": "mwp-007",
        "body": "一台机器的功率是2000瓦特。",
        "question": "这相当于多少千瓦？",
        "equation": "2000/1000",
        "answer": 2.0,
        "answer_unit": "KiloW",
    },
    {
        "id": "mwp-008",
        "body": "A pump moves 600 liters of water in 30 minutes.",
        "question": "How many liters per minute is that?",
        "equation": "600/30",
        "answer": 20.0,
        "answer_unit": "L-PER-MIN",
    },
]


def build_mwp() -> None:
    lines = [json.dumps(p, ensure_ascii=False) for p in PROBLEMS]
    (DATA / "mwp_sample.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(PROBLEMS)} problems")


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    build_kb()
    build_triplets()
    build_corpus()
    build_mwp()
