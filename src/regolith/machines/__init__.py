from .kinematics import (
    ArmGeometry,
    IkResult,
    JOINT_NAMES,
    calculate_ik,
    forward_kinematics,
)
from .locomotion import (
    ARRIVED,
    IDLE,
    RUNNING as DRIVE_RUNNING,
    settle_on_terrain,
    step_locomotion,
)
from .skills import (
    ArmDumpExecution,
    BedDumpExecution,
    LevelRunExecution,
    DigExecution,
    DriveExecution,
    FAILED,
    Pid,
    RUNNING,
    SUCCEEDED,
    blade_level_step,
    blade_release,
    bucket_tip,
    in_bed_footprint,
    move_arm_toward,
    record_arm_samples,
    spill_model,
    transfer_bucket,
)
from .specs import (
    ACTUATORS,
    ROLES,
    ActuatorSample,
    MachineSpec,
    MachineState,
    default_spec,
)

__all__ = [
    "ACTUATORS", "ARRIVED", "ROLES", "ActuatorSample", "ArmDumpExecution",
    "ArmGeometry", "LevelRunExecution",
    "BedDumpExecution", "DRIVE_RUNNING", "DigExecution", "DriveExecution",
    "FAILED", "IDLE",
    "IkResult", "JOINT_NAMES", "MachineSpec", "MachineState",
    "Pid", "RUNNING", "SUCCEEDED", "blade_level_step", "blade_release",
    "bucket_tip", "calculate_ik", "default_spec", "forward_kinematics",
    "in_bed_footprint", "move_arm_toward", "record_arm_samples",
    "settle_on_terrain", "spill_model", "step_locomotion",
    "transfer_bucket",
]
